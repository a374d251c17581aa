package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	mom "repro"
)

// hostRecord describes where and how a run was measured.
func hostRecord(o options) map[string]string {
	scale := "bench"
	if o.scale != mom.ScaleBench {
		scale = "test"
	}
	return map[string]string{
		"go":            runtime.Version(),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"cpu":           cpuModel(),
		"seed":          strconv.FormatInt(o.seed, 10),
		"commit":        gitCommit(),
		"workload":      o.workload,
		"scale":         scale,
		"poll_interval": pollInterval.String(),
		"zipf_s":        strconv.FormatFloat(zipfS, 'g', -1, 64),
		"dup_frac":      strconv.FormatFloat(dupFrac, 'g', -1, 64),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from the .git directory of the
// working directory, without running git; "unknown" outside a clone.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
