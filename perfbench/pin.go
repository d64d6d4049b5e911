package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// affinity returns the CPUs the calling thread may run on.
func affinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// lastCPU returns the set holding only the highest-numbered CPU of m.
func lastCPU(m cpuMask) cpuMask {
	var one cpuMask
	for i := len(m)*64 - 1; i >= 0; i-- {
		if m[i/64]&(1<<(i%64)) != 0 {
			one[i/64] = 1 << (i % 64)
			break
		}
	}
	return one
}

// confine moves every thread of this process, and of each process in
// others, onto one CPU: the highest-numbered one this process may use. The
// returned function gives this process its CPUs back.
func confine(others ...int) (restore func(), err error) {
	own, err := affinity()
	if err != nil {
		return nil, err
	}
	one := lastCPU(own)
	for _, pid := range append([]int{os.Getpid()}, others...) {
		if err := setAffinity(pid, one); err != nil {
			setAffinity(os.Getpid(), own)
			return nil, err
		}
	}
	return func() { setAffinity(os.Getpid(), own) }, nil
}

// setAffinity confines every thread of process pid to the CPUs of m. A
// thread started meanwhile inherits the mask of the thread that started
// it, so the pass repeats until it finds no thread it has not set yet.
func setAffinity(pid int, m cpuMask) error {
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("setting the CPUs of thread %d of process %d: %w", tid, pid, e)
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}
