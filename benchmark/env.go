package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envBlock is the environment every result carries, so a number can be
// tied to the cores, build and inputs that produced it.
type envBlock struct {
	NumCPU             int    `json:"num_cpu"`
	GOMAXPROCS         int    `json:"gomaxprocs"`
	Workers            int    `json:"workers"`
	GoVersion          string `json:"go_version"`
	Commit             string `json:"commit"`
	Dirty              bool   `json:"dirty"`
	MatcherFingerprint uint64 `json:"matcher_fingerprint"`
	ModelFingerprint   uint64 `json:"model_fingerprint"`
}

func collectEnv(root string, workers int, matcherFP, modelFP uint64) envBlock {
	commit, dirty := gitState(root)
	return envBlock{
		NumCPU:             runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Workers:            workers,
		GoVersion:          runtime.Version(),
		Commit:             commit,
		Dirty:              dirty,
		MatcherFingerprint: matcherFP,
		ModelFingerprint:   modelFP,
	}
}

// gitState reads HEAD and the dirty flag; a checkout that is not a git
// repository (the acceptance driver's) reads "unknown". The ceiling keeps
// git from wandering above the checkout looking for one.
func gitState(root string) (commit string, dirty bool) {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err := git("rev-parse", "HEAD")
	if err != nil || commit == "" {
		return "unknown", false
	}
	status, err := git("status", "--porcelain")
	return commit, err == nil && status != ""
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module squatphi.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module squatphi" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the squatphi repository (no go.mod with \"module squatphi\" above the working directory)")
		}
		dir = parent
	}
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process;
// 0 where /proc is unavailable.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
			var kb float64
			if _, err := fmt.Sscanf(string(rest), "%f", &kb); err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS resets this process's VmHWM to its current RSS (Linux:
// writing 5 to clear_refs), so the peak covers the measured phase and not
// the generators that ran in set-up. It reports whether the reset took.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}
