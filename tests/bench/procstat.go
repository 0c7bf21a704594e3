package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux port Go supports.
const clkTck = 100

// cpuTimes is a process's cumulative CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.user + o.user, c.sys + o.sys} }

// selfCPU is this process's CPU time, at the kernel's full resolution.
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

// procCPU reads utime and stime (fields 14 and 15) of /proc/<pid>/stat.
func procCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("bench: malformed /proc/%d/stat times", pid)
	}
	tick := time.Second / clkTck
	return cpuTimes{time.Duration(ut) * tick, time.Duration(st) * tick}, nil
}

// procsCPU sums procCPU over pids; a process that has gone reads as 0.
func procsCPU(pids []int) cpuTimes {
	var sum cpuTimes
	for _, pid := range pids {
		if c, err := procCPU(pid); err == nil {
			sum = sum.add(c)
		}
	}
	return sum
}

// statusField returns a numeric field of a /proc status file ("VmHWM:
// 1234 kB" → 1234).
func statusField(path, name string) (uint64, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) float64 {
	kb, _ := statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return float64(kb) / 1024
}

// voluntaryCtxSw sums voluntary context switches over every thread of
// pid (/proc/<pid>/status alone covers only the main thread).
func voluntaryCtxSw(pid int) uint64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	var sum uint64
	for _, t := range tasks {
		v, _ := statusField(t, "voluntary_ctxt_switches")
		sum += v
	}
	return sum
}

// ---- host metadata ----

// hostMeta is stamped on every output file, so a record can be read
// without knowing where it was made.
type hostMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_dir_filesystem"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	WindowS    int    `json:"window_s"`
}

func collectMeta(root, dataDir string, seed uint64, window int) hostMeta {
	m := hostMeta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		DataFS:     filesystemOf(dataDir),
		GitCommit:  gitCommit(root),
		Seed:       seed,
		WindowS:    window,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}

// filesystemOf names the filesystem type holding dir: the longest mount
// point in /proc/mounts that is a prefix of dir.
func filesystemOf(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// gitCommit reads HEAD without running git: the driver's checkout is
// not a repository, and then the commit is honestly unknown.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
