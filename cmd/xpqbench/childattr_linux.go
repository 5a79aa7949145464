package main

import "syscall"

// childAttr makes the kernel kill the daemon if the harness dies in a
// way no deferred cleanup survives (SIGKILL, a runtime fatal error).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
