package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts utime+stime (in clock ticks) from the content
// of /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (ticks uint64, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", data)
	}
	// After the command: state is field 3, utime 14, stime 15.
	fields := bytes.Fields(data[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB extracts one "Key:   123 kB" line from the content of
// /proc/<pid>/status.
func parseStatusKB(data []byte, key string) (kb int64, err error) {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads the cumulative CPU time (user+system) of a process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(data)
	return time.Duration(ticks) * clockTick, err
}

// procMemMB reads one memory line (VmRSS, VmHWM) of a process, in MB.
func procMemMB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, key)
	return float64(kb) / 1024, err
}

// selfCPU is the harness's own cumulative CPU time (user+system).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the cumulative steal time of all processors from
// /proc/stat: time in which a virtual CPU was runnable but the
// hypervisor ran something else. It says how disturbed a run was.
func hostSteal() (time.Duration, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(data)
}

// parseSteal extracts the steal column of the aggregate "cpu" line.
func parseSteal(data []byte) (time.Duration, error) {
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	ticks, err := strconv.ParseUint(string(f[8]), 10, 64)
	return time.Duration(ticks) * clockTick, err
}
