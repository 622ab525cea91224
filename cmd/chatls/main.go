// Command chatls customizes a logic-synthesis script for a benchmark design
// from a natural-language requirement, through the pipeline of your choice:
//
//	chatls -design dynamic_node                 # full ChatLS pipeline
//	chatls -design aes -pipeline gpt4o          # raw GPT-4o-sim prompting
//	chatls -design jpeg -show-script -show-steps
//	chatls -design tinyRocket -req "minimize area, timing is met"
//
// The customized script is executed by the synthesis simulator and the
// before/after QoR is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
)

func main() {
	designName := flag.String("design", "dynamic_node", "benchmark design name (aes, dynamic_node, ethmac, jpeg, riscv32i, swerv, tinyRocket)")
	pipeline := flag.String("pipeline", "chatls", "pipeline: chatls, gpt4o, claude")
	req := flag.String("req", chatls.DefaultRequirement, "natural-language requirement")
	k := flag.Int("k", 5, "Pass@k samples")
	seed := flag.Int64("seed", 20250706, "generation seed")
	showScript := flag.Bool("show-script", false, "print the best customized script")
	showSteps := flag.Bool("show-steps", false, "print SynthExpert's chain-of-thought steps")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget, baseline run included (0 = unlimited)")
	flag.Parse()

	d := designs.ByName(*designName)
	if d == nil {
		fmt.Fprintf(os.Stderr, "unknown design %q\n", *designName)
		os.Exit(1)
	}
	lib := liberty.Nangate45()

	var p chatls.Pipeline
	switch *pipeline {
	case "gpt4o":
		p = &chatls.RawPipeline{Model: llm.New(llm.GPT4o, *seed)}
	case "claude":
		p = &chatls.RawPipeline{Model: llm.New(llm.Claude35, *seed)}
	case "chatls":
		fmt.Fprintln(os.Stderr, "building SynthRAG database...")
		db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: *seed, TrainEpochs: 40, Lib: lib})
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		p = chatls.NewChatLS(llm.New(llm.GPT4o, *seed), db)
	default:
		fmt.Fprintf(os.Stderr, "unknown pipeline %q\n", *pipeline)
		os.Exit(1)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Override the requirement if given.
	task, baseQoR, err := chatls.NewTask(ctx, d, lib)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	task.Requirement = *req

	fmt.Printf("design %s @ %.2f ns  (baseline: WNS %.3f CPS %.3f TNS %.2f area %.1f)\n",
		d.Name, d.Period, baseQoR.WNS, baseQoR.CPS, baseQoR.TNS, baseQoR.Area)

	best := baseQoR
	bestScript := ""
	valid := 0
	for s := 0; s < *k; s++ {
		cres, err := p.CustomizeResult(ctx, task, s)
		script, steps := cres.Script, cres.Steps
		if err != nil {
			fmt.Printf("  sample %d: customize failed: %v\n", s, err)
			continue
		}
		sess := synth.NewSession(lib)
		sess.AddSource(d.FileName, d.Source)
		res, err := sess.Run(script)
		if err != nil {
			fmt.Printf("  sample %d: script failed in tool: %v\n", s, err)
			continue
		}
		valid++
		q := *res.QoR
		marker := ""
		if bestScript == "" || chatls.BetterTiming(q, best) {
			best = q
			bestScript = script
			marker = "  <- best so far"
		}
		fmt.Printf("  sample %d: WNS %.3f CPS %.3f TNS %.2f area %.1f%s\n",
			s, q.WNS, q.CPS, q.TNS, q.Area, marker)
		if *showSteps && len(steps) > 0 && s == 0 {
			fmt.Println("  chain-of-thought steps:")
			for i, st := range steps {
				fmt.Printf("    T%d: %s\n", i+1, st.Thought)
				if st.Before != "" {
					fmt.Printf("        %q -> %q  (via %s)\n", st.Before, st.After, st.Retrieved)
				}
			}
		}
	}
	fmt.Printf("\nPass@%d: %d valid samples; best WNS %.3f CPS %.3f TNS %.2f area %.1f\n",
		*k, valid, best.WNS, best.CPS, best.TNS, best.Area)
	fmt.Printf("baseline -> customized: WNS %.3f -> %.3f, area %.1f -> %.1f\n",
		baseQoR.WNS, best.WNS, baseQoR.Area, best.Area)
	if *showScript && bestScript != "" {
		fmt.Println("\nbest script:")
		fmt.Println(bestScript)
	}
}
