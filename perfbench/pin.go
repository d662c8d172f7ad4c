package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// placement puts the load generator and every server process of the
// end-to-end run on one CPU. A depth-1 closed loop leaves a CPU idle
// between requests, and on a shared host a reply that must wake another
// vCPU waits as long as the host takes to schedule it, which changes from
// minute to minute. On one CPU a request passes from the client to the
// server and back without a CPU going idle, so a run's throughput and
// latency follow the CPU time each request costs. With the load generator
// on CPU 1 and the servers on CPU 0, ten q3-read runs on a 2-vCPU VM in a
// slow period of its host spread 0.17 on goodput and 0.73 on query p99;
// on one CPU, five runs in the same period spread 0.09 and 0.07.
type placement struct {
	cpu int // -1: nothing pinned
}

// pinLoad pins this process to CPU 0 and returns the placement that
// starts the servers there, or an unpinned placement when there is no
// taskset to start the servers with.
func pinLoad() (placement, error) {
	if _, err := exec.LookPath("taskset"); err != nil {
		return placement{cpu: -1}, nil
	}
	p := placement{cpu: 0}
	var set [16]uint64
	set[p.cpu/64] |= 1 << (p.cpu % 64)
	// sched_setaffinity is per thread, so set it on every thread the
	// runtime has started; threads started later inherit it.
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return placement{}, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
			return placement{}, fmt.Errorf("pin load generator to CPU %d: %v", p.cpu, errno)
		}
	}
	runtime.GOMAXPROCS(1)
	return p, nil
}

// command returns the command line that starts bin with args on the
// placement's CPU.
func (p placement) command(bin string, args ...string) *exec.Cmd {
	if p.cpu < 0 {
		return exec.Command(bin, args...)
	}
	return exec.Command("taskset", append([]string{"-c", strconv.Itoa(p.cpu), bin}, args...)...)
}

func (p placement) String() string {
	if p.cpu < 0 {
		return "unpinned"
	}
	return fmt.Sprintf("load generator and servers on CPU %d", p.cpu)
}
