package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"busytime/internal/server"
)

// daemon is a busyschedd subprocess.
type daemon struct {
	cmd           *exec.Cmd
	control, data string
	drained       chan struct{} // closed once stdout reaches EOF
	stderr        bytes.Buffer
}

// startDaemon launches busyschedd on ephemeral loopback ports and waits
// for it to announce both listen addresses.
func startDaemon(path string, g int) (*daemon, error) {
	cmd := exec.Command(path, "-g", strconv.Itoa(g), "-control", "127.0.0.1:0", "-data", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	cmd.Stderr = &d.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", path, err)
	}
	addrs := make(chan [2]string, 1) // the one announcement, sent once
	go func() {
		defer close(d.drained)
		var a [2]string
		sent := false
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if _, v, ok := strings.Cut(line, "control plane listening on "); ok {
				a[0] = strings.TrimSpace(v)
			}
			if _, v, ok := strings.Cut(line, "data plane listening on "); ok {
				a[1] = strings.TrimSpace(v)
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addrs:
		d.control, d.data = a[0], a[1]
		return d, nil
	case <-d.drained:
		err = fmt.Errorf("busyschedd exited before listening")
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("busyschedd did not announce its addresses within 30s")
	}
	d.stop()
	return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(d.stderr.String()))
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 20s, and waits for it.
func (d *daemon) stop() error {
	if d == nil || d.cmd.Process == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	return d.cmd.Wait()
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// fetchServerStats reads the daemon's GET /stats document.
func fetchServerStats(control string) (server.StatsSnapshot, error) {
	var st server.StatsSnapshot
	resp, err := http.Get("http://" + control + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
