package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// prSetTHPDisable is PR_SET_THP_DISABLE from <linux/prctl.h>.
const prSetTHPDisable = 41

// disableTHP turns transparent huge pages off for this process (and the
// children it execs). With THP=always, identical runs of a serial search
// loop differed by 14% in qps across processes; with it disabled, 5.7%.
func disableTHP() string {
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_PRCTL, prSetTHPDisable, 1, 0, 0, 0, 0); errno != 0 {
		return "prctl failed: " + errno.Error()
	}
	return "disabled for process"
}

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// cpuMask is a cpu_set_t of 1024 CPUs.
type cpuMask [16]uint64

// idleSpin is what a keepAwake child does: pin its thread to one CPU,
// drop it to SCHED_IDLE, say "ready", and spin until standard input
// closes (the parent stopped it, or died).
func idleSpin(cpu int) error {
	runtime.LockOSThread()
	var mask cpuMask
	mask[cpu/64] |= 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, errno)
	}
	var priority int32 // sched_param; SCHED_IDLE takes 0
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	// irlint:goroutine-exits the process exits with it
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // any end of input is the signal to stop
		os.Exit(0)
	}()
	fmt.Println("ready")
	for {
		spinSink[0] += spin(1 << 20)
	}
}

// keepAwake starts one child per CPU this process may run on, each
// spinning at SCHED_IDLE: it runs only while its CPU has nothing else to
// do and is preempted the moment anything wakes. On a virtual machine an
// idle vCPU halts, the host gives the core to a neighbour, and the next
// wake-up pays for the host's scheduling and for cold caches — 30 µs of
// the open-loop workload's 100 µs median, and the noisiest part of it
// (README, "Noise guards"). The returned stop ends the children and waits
// for them; state says what happened, for the environment block. Where
// the policy cannot be set the epoch runs without.
func keepAwake() (stop func(), state string) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return func() {}, "sched_getaffinity failed: " + errno.Error()
	}
	exe, err := os.Executable()
	if err != nil {
		return func() {}, "cannot locate own binary: " + err.Error()
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.Closer
	}
	var children []child
	stop = func() {
		for _, c := range children {
			_ = c.stdin.Close()      // asks the child to exit;
			_ = c.cmd.Process.Kill() // makes sure of it
			_ = c.cmd.Wait()         // a killed child's status is not news
		}
	}
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		cmd := exec.Command(exe, "-idle-spin", strconv.Itoa(cpu))
		cmd.Stderr = os.Stderr
		stdin, err1 := cmd.StdinPipe()
		stdout, err2 := cmd.StdoutPipe()
		if err1 != nil || err2 != nil {
			stop()
			return func() {}, fmt.Sprintf("pipes: %v %v", err1, err2)
		}
		if err := cmd.Start(); err != nil {
			stop()
			return func() {}, "start: " + err.Error()
		}
		children = append(children, child{cmd, stdin})
		if line, err := bufio.NewReader(stdout).ReadString('\n'); err != nil || line != "ready\n" {
			stop()
			return func() {}, fmt.Sprintf("unavailable (cpu %d: %q %v)", cpu, line, err)
		}
	}
	return stop, fmt.Sprintf("%d SCHED_IDLE spinners", len(children))
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. Go's own
// timers fire from epoll_wait, whose timeout counts in milliseconds: an
// idle process wakes a sleeping goroutine up to a millisecond late,
// which an open-loop generator would charge to every request's latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func kernelVersion() string { return readTrimmed("/proc/sys/kernel/osrelease") }
func thpSetting() string    { return readTrimmed("/sys/kernel/mm/transparent_hugepage/enabled") }
