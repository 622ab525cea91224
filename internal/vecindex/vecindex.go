// Package vecindex provides vector similarity search for SynthRAG's
// embedding-based retrieval (paper Eq. 4), standing in for FAISS: an exact
// flat index, an HNSW graph index, and an Auto index that stays flat (exact)
// for small corpora and migrates to HNSW past a size threshold, over cosine
// or Euclidean metrics.
package vecindex

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// Metric selects the similarity function.
type Metric int

const (
	Cosine Metric = iota // higher is better
	L2                   // lower distance is better; scores are negated distances
)

// Hit is one search result; Score is always "higher is better".
type Hit struct {
	ID    string
	Score float64
}

// Index is the common search interface.
type Index interface {
	Add(id string, vec []float64) error
	Search(query []float64, k int) []Hit
	Len() int
}

// score converts a vector pair to a higher-is-better score.
func score(metric Metric, q, v []float64) float64 {
	switch metric {
	case Cosine:
		return tensor.Cosine(q, v)
	default:
		return -tensor.L2Dist(q, v)
	}
}

// Flat is an exact brute-force index. It is the correctness oracle the
// approximate indexes (IVF, HNSW) are tested against, the way the naive
// kernels oracle the tiled MatMul.
type Flat struct {
	Metric Metric
	dim    int
	ids    []string
	vecs   [][]float64
	norms  []float64 // Euclidean norm of each stored vector, cached at Add
}

// NewFlat creates an exact index for dim-dimensional vectors.
func NewFlat(dim int, metric Metric) *Flat {
	return &Flat{Metric: metric, dim: dim}
}

// Add inserts a vector. The vector's norm is computed once here so cosine
// search never renormalizes stored vectors per query.
func (f *Flat) Add(id string, vec []float64) error {
	if len(vec) != f.dim {
		return fmt.Errorf("vector %q has dim %d, index wants %d", id, len(vec), f.dim)
	}
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, append([]float64(nil), vec...))
	f.norms = append(f.norms, tensor.Norm(vec))
	return nil
}

// Len returns the number of stored vectors.
func (f *Flat) Len() int { return len(f.ids) }

// Search returns the top-k hits sorted by descending score (ties by ID).
// k <= 0, an empty index, or a query of the wrong dimension returns nil;
// k > Len returns everything. The cosine path divides each dot product by
// the query norm (computed once) and the stored norm cached at Add — the
// exact expression tensor.Cosine evaluates, so scores are bit-identical to
// the unnormalized scan.
func (f *Flat) Search(query []float64, k int) []Hit {
	if k <= 0 || len(f.ids) == 0 || len(query) != f.dim {
		return nil
	}
	hits := make([]Hit, 0, len(f.ids))
	if f.Metric == Cosine {
		qn := tensor.Norm(query)
		for i, v := range f.vecs {
			var s float64
			if qn != 0 && f.norms[i] != 0 {
				s = tensor.Dot(query, v) / (qn * f.norms[i])
			}
			hits = append(hits, Hit{ID: f.ids[i], Score: s})
		}
	} else {
		for i, v := range f.vecs {
			hits = append(hits, Hit{ID: f.ids[i], Score: -tensor.L2Dist(query, v)})
		}
	}
	sortHits(hits)
	if k < len(hits) {
		hits = hits[:k]
	}
	return hits
}

func sortHits(hits []Hit) {
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
}
