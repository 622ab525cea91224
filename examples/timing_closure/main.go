// Timing closure: the iterative resynthesis workflow from the paper's
// introduction — synthesis is not a one-shot run; after the first compile
// you read the report and choose the next step from it.
//
//	go run ./examples/timing_closure
//
// The example walks tinyRocket (a pipeline with a grossly imbalanced
// execute stage) through two customization iterations: the first closes
// most of the violation with retiming, the second trades the recovered
// slack for area.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
)

func main() {
	lib := liberty.Nangate45()
	design := designs.TinyRocket()

	db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: 3, TrainEpochs: 40, Lib: lib})
	if err != nil {
		log.Fatal(err)
	}
	pipeline := chatls.NewChatLS(llm.New(llm.GPT4o, 3), db)

	ctx := context.Background()
	task, q, err := chatls.NewTask(ctx, design, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iteration 0 (baseline): WNS %7.3f  TNS %8.2f  area %9.1f\n", q.WNS, q.TNS, q.Area)

	script := task.Baseline
	for iter := 1; iter <= 2; iter++ {
		// Requirement changes as the situation changes — exactly the
		// iterative flow the paper motivates.
		if q.WNS < 0 {
			task.Requirement = "Timing is violated. Choose the resynthesis step that targets the reported bottleneck and close timing without changing the clock."
		} else {
			task.Requirement = "Timing is met. Recover as much area as possible while keeping all timing constraints satisfied."
		}
		task.Baseline = script

		cres, err := pipeline.CustomizeResult(ctx, task, 0)
		if err != nil {
			log.Fatal(err)
		}
		next := cres.Script
		sess := synth.NewSession(lib)
		sess.AddSource(design.FileName, design.Source)
		res, err := sess.Run(next)
		if err != nil {
			log.Fatalf("iteration %d script failed: %v", iter, err)
		}
		q = *res.QoR
		script = next
		task.BaselineReport = strings.Join(res.Reports, "\n")
		fmt.Printf("iteration %d:            WNS %7.3f  TNS %8.2f  area %9.1f\n", iter, q.WNS, q.TNS, q.Area)

		// Show which optimization commands the pipeline chose.
		var chosen []string
		for _, line := range strings.Split(next, "\n") {
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			switch f[0] {
			case "compile", "compile_ultra", "optimize_registers", "balance_buffers", "ungroup", "set_max_fanout":
				chosen = append(chosen, line)
			}
		}
		fmt.Printf("              commands: %s\n", strings.Join(chosen, " | "))
	}
}
