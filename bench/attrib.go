package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// codeLayers are the packages under internal/ that run inside a workload;
// cpuLayers adds the two places a sample with no such frame can go: the
// garbage collector and everything else (runtime scheduler, the
// benchmark's own frames).
var (
	codeLayers = []string{
		"sim", "transport", "master", "agent", "appmaster", "gateway", "protocol",
		"ident", "resource", "invariant", "scale",
	}
	cpuLayers = append(append([]string(nil), codeLayers...), "gc", "other")
)

const internalPrefix = "repro/internal/"

// layerOfFrame returns the codeLayers entry a function belongs to, or "".
func layerOfFrame(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if slices.Contains(codeLayers, pkg) {
		return pkg
	}
	return ""
}

// gcRoots are the runtime entry points of background collector work; a
// stack that contains one and no layer frame is charged to gc.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination",
}

// layerOfStack charges one sample (frames leaf first) to the innermost
// layer frame on its stack, so map, hash and allocation time lands on the
// layer that asked for it; collector workers go to gc, the rest to other.
func layerOfStack(frames []string) string {
	gc := false
	for _, f := range frames {
		if l := layerOfFrame(f); l != "" {
			return l
		}
		for _, r := range gcRoots {
			if strings.HasPrefix(f, r) {
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// attribute parses `go tool pprof -traces` text and returns each layer's
// share of the sampled CPU time (summing to 1) and the sampled total.
func attribute(r io.Reader) (map[string]float64, time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var total, weight time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOfStack(frames)] += weight
			total += weight
		}
		frames, weight = frames[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inStacks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks {
			continue // header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			continue
		case len(frames) == 0:
			// First line of a stack: "<value> <leaf frame> [(inline)]".
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			weight = d
			frames = append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, total, nil
}

// attributeProfile runs the toolchain's pprof over a CPU profile file.
func attributeProfile(path string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, stderr.String())
	}
	shares, _, err := attribute(bytes.NewReader(out))
	return shares, err
}
