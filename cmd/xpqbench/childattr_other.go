//go:build !linux

package main

import "syscall"

// childAttr: no parent-death signal outside Linux; the janitor's sweep
// is the only cleanup there.
func childAttr() *syscall.SysProcAttr { return nil }
