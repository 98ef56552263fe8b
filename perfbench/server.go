package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one rws-serve child process pinned to CPU 0.
type server struct {
	cmd    *exec.Cmd
	pid    int
	port   int
	stderr *os.File
	exited chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// childEnv is the environment rws-serve runs with: the benchmark's own,
// minus the runtime knobs that would change how it runs, plus extra.
func childEnv(extra ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			env = append(env, kv)
		}
	}
	return append(env, extra...)
}

// startServer starts bin pinned to CPU 0, listening on a fresh port,
// with its standard error written to stderrPath.
func startServer(bin string, args []string, stderrPath string, env []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	f, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-c", "0", bin, "-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)
	cmd := exec.Command("taskset", argv...)
	cmd.Stderr = f
	cmd.Env = env
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start rws-serve: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, port: port, stderr: f, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	return s, nil
}

// stop terminates the server and waits until it has exited: SIGTERM
// first, SIGKILL if it has not drained within five seconds.
func (s *server) stop() {
	defer s.stderr.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
		return
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
	s.stderr.Close()
}

// alive reports whether the server has not exited.
func (s *server) alive() bool {
	select {
	case err := <-s.exited:
		s.exited <- err
		return false
	default:
		return true
	}
}

// cpuTimes is a process's user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

func (s *server) cpu() (cpuTimes, error) { return procCPU(s.pid) }

func procCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return cpuTimes{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return cpuTimes{}, errors.New("short /proc stat")
	}
	// After the name: state(0) ... utime(11) stime(12).
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, errors.New("bad /proc stat times")
	}
	return cpuTimes{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}, nil
}

// rssMB reads the server's resident set size.
func (s *server) rssMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// boxCPU is the machine-wide CPU time split from /proc/stat.
type boxCPU struct{ total, steal int64 }

func readBoxCPU() boxCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return boxCPU{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	var c boxCPU
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			c.total += n
		}
		if i == 7 {
			c.steal = n
		}
	}
	return c
}

// stealShare is the share of all CPU time the hypervisor stole between
// two readings.
func stealShare(a, b boxCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// startSpinner runs an idle-priority busy loop on CPU 0 for the life of
// the run. It takes CPU 0 only when rws-serve does not want it, and keeps
// the virtual CPU from halting between requests: on a shared VM, waking a
// halted virtual CPU added milliseconds to a tenth of light-load
// requests, a cost of the host, not of the code under test.
func startSpinner() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("taskset", "-c", "0", "chrt", "-i", "0", self, "-spin")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start CPU 0 spinner: %w", err)
	}
	return func() {
		_ = cmd.Process.Kill() // fails only if it already exited
		_ = cmd.Wait()         // the kill is the expected exit status
	}, nil
}
