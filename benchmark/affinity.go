package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The served workloads are closed loops in which at most one side is
// runnable at a time: the client waits for the window it sent, the server
// for the next one. On the two-core reference runner (a virtual machine) a
// second CPU then adds nothing but cross-CPU wake-ups of a halted virtual
// CPU, which cost tens of microseconds, belong to the hypervisor rather than
// to this repository, and, with the kernel free to place each woken thread,
// moved a served round trip between 32 and 56 µs from one run to the next.
// So a served workload binds the load generator and every server to one
// CPU, which then never idles. lib-hot and lib-churn bind their one goroutine
// the same way (see w_lib.go); sim-sweep is not bound and uses every CPU.

// cpuMask is a set of CPUs, bit i for CPU i (the first 64 are enough here).
type cpuMask uint64

func setAffinity(tid int, mask cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %#x): %w", tid, uint64(mask), errno)
	}
	return nil
}

// allowedCPUs is the calling thread's affinity mask.
func allowedCPUs() (cpuMask, error) {
	var mask cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return mask, nil
}

// bindProcess binds every thread of this process to mask. Threads and
// children started later inherit it. Two passes, because a thread can be
// born from a not-yet-bound one during the first.
func bindProcess(mask cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, mask); err != nil {
				// A thread may have exited since the listing.
				if _, statErr := os.Stat("/proc/self/task/" + t.Name()); statErr == nil {
					return err
				}
			}
		}
	}
	return nil
}
