// Command perfab runs the repository's benchmark as an A/B comparison of
// two revisions. It exports each revision's committed files with `git
// archive` into its own fresh directory under a new temporary directory
// (whose path it prints), then runs
//
//	bash perfbench/run.sh --workload W --seed S --trace 0
//
// in both, at perfbench's default run length, for N pairs on seeds S, S+1, …, alternating which revision
// runs first. Every run's end-to-end metrics are printed as it finishes;
// the summary then gives, per metric of the parent's BENCHMARK.json, the
// parent median (q1–q3), the change median, Δ, the change's wins, the
// parent IQR and the verdict of the acceptance rule (see summary.go).
//
// Usage, from the root of the repository:
//
//	go run ./cmd/perfab -parent HEAD~1 -change HEAD -workload serve-closed -seed 101 -pairs 10
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// result is the JSON line that ends every perfbench run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfab:", err)
		os.Exit(1)
	}
}

func run() error {
	parent := flag.String("parent", "HEAD~1", "parent revision")
	change := flag.String("change", "HEAD", "changed revision")
	workload := flag.String("workload", "", "perfbench workload: fig7-sweep, serve-closed or fleet-replay")
	seed := flag.Int("seed", 1, "seed of the first pair; pair i runs on seed+i")
	pairs := flag.Int("pairs", 10, "number of parent/change pairs")
	flag.Parse()
	if *workload == "" || *pairs < 1 {
		flag.Usage()
		return errors.New("need -workload and -pairs ≥ 1")
	}
	dir, err := os.MkdirTemp("", "perfab-*")
	if err != nil {
		return err
	}
	fmt.Println("exported trees in", dir)
	trees := [2]string{filepath.Join(dir, "parent"), filepath.Join(dir, "change")}
	for i, rev := range [2]string{*parent, *change} {
		if err := export(rev, trees[i]); err != nil {
			return err
		}
	}
	var metrics struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(trees[0], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		return fmt.Errorf("parent BENCHMARK.json: %w", err)
	}

	sums := make([]summary, len(metrics.EndToEnd))
	for i, m := range metrics.EndToEnd {
		sums[i].metric = m
	}
	var fails [2]tally
	for p := range *pairs {
		s := *seed + p
		var res [2]result
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			r, err := bench(trees[side], *workload, s)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", [2]string{"parent", "change"}[side], s, err)
			}
			res[side] = r
			fails[side].add(r)
			fmt.Printf("pair %d seed %d %-6s correct=%v failed=%d/%d", p+1, s, [2]string{"parent", "change"}[side], r.Correct, r.Failed, r.Attempted)
			for _, m := range metrics.EndToEnd {
				fmt.Printf(" %s=%.4g", m.Name, r.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
		for i := range sums {
			name := sums[i].metric.Name
			sums[i].parent = append(sums[i].parent, res[0].Metrics[name].Value)
			sums[i].change = append(sums[i].change, res[1].Metrics[name].Value)
		}
	}

	fmt.Printf("\n%s, %d pairs, seeds %d–%d, parent %s vs change %s:\n", *workload, *pairs, *seed, *seed+*pairs-1, *parent, *change)
	for i, side := range [2]string{"parent", "change"} {
		fmt.Printf("%s: %s\n", side, fails[i])
	}
	for _, s := range sums {
		s.fails = fails
		fmt.Println(s)
	}
	return nil
}

// export writes rev's committed files into dir, which it creates: it
// refuses a dir that already exists, so no file of another revision can
// be left among rev's.
func export(rev, dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extracting %s: %w", rev, err)
	}
	return nil
}

// bench runs one perfbench workload in tree and decodes its result line.
func bench(tree, workload string, seed int) (result, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--trace", "0")
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return res, err
		}
		return res, fmt.Errorf("reading the result line: %w", jerr)
	}
	// A run whose checks failed exits non-zero but still reports; keep it.
	return res, nil
}
