package main

import (
	"embed"
	"fmt"

	"insomnia/internal/dsl"
)

//go:embed workloads/*.yaml
var workloadFiles embed.FS

// workload is one named input set. Its spec lives in workloads/<name>.yaml,
// which cmd/campaign runs as is; the benchmark only re-seeds it.
type workload struct {
	name string
	// jobs is the number of drill jobs one repetition runs through the
	// campaign server; 0 marks a batch workload, whose repetition is one
	// campaign submitted in-process.
	jobs int
}

// workloads lists the benchmark's workloads in the order "all" runs them.
var workloads = []workload{
	{name: "office-day"},
	{name: "metro-sharded"},
	{name: "metro-symmetric"},
	// 80 jobs take about three seconds on two cores, so a run holds several
	// repetitions and a few hundred latency samples. simd-drill.yaml's
	// seed comment depends on this count.
	{name: "simd-drill", jobs: 80},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec returns the workload's spec for job i under benchmark seed s. The
// file lists k seeds and a run has J jobs (1 for a batch workload); job i
// gets the k seeds after (s-1)·k·J + i·k, so seed 1 runs the file's own
// seeds 1..k and distinct benchmark seeds never share a scenario. The
// code under test only ever sees these generated specs.
func (w workload) spec(seed int64, job int) (dsl.Spec, error) {
	buf, err := workloadFiles.ReadFile("workloads/" + w.name + ".yaml")
	if err != nil {
		return dsl.Spec{}, err
	}
	sp, err := dsl.ParseSpec(buf)
	if err != nil {
		return dsl.Spec{}, fmt.Errorf("%s: %w", w.name, err)
	}
	k, jobs := int64(len(sp.Seeds)), int64(max(w.jobs, 1))
	for i := range sp.Seeds {
		sp.Seeds[i] = (seed-1)*k*jobs + int64(job)*k + int64(i) + 1
	}
	return sp, nil
}
