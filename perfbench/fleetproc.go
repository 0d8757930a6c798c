package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childArg is the hidden first argument that turns the benchmark binary
// into the fleet under test.
const childArg = "fleet-child"

// fleetInfo is the child's ready line: where the router and the
// replicas listen.
type fleetInfo struct {
	Router   string   `json:"router"`
	Replicas []string `json:"replicas"`
}

// childMain is the fleet process: boot, print the ready line, serve
// until standard input closes, drain.
func childMain() error {
	f, err := bootFleet(context.Background(), nil)
	if err != nil {
		return err
	}
	defer f.stop()
	line, err := json.Marshal(f.info)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	// The parent closes our standard input to stop us (or dies, which
	// closes it too).
	io.Copy(io.Discard, os.Stdin)
	return nil
}

// fleetProc is the parent's handle on the child fleet process.
type fleetProc struct {
	fleetInfo
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *io.PipeWriter // the child's standard output; closed after Wait
}

// startFleet launches the child and waits for its ready line.
func startFleet() (*fleetProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, childArg)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	// Wait copies the child's output into pw and returns once the child
	// has exited; stop then closes pw, which ends the reader below.
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	fp := &fleetProc{cmd: cmd, stdin: stdin, stdout: pw}
	ready := make(chan error, 1)
	go func() {
		line, err := bufio.NewReader(pr).ReadString('\n')
		if err == nil {
			err = json.Unmarshal([]byte(line), &fp.fleetInfo)
		}
		ready <- err
		io.Copy(io.Discard, pr)
	}()
	select {
	case err = <-ready:
	case <-time.After(90 * time.Second):
		err = fmt.Errorf("fleet did not come up within 90s")
	}
	if err != nil {
		fp.stop()
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	return fp, nil
}

// stop closes the child's standard input, waits for it to drain and
// exit, and kills it if it does not within ten seconds.
func (fp *fleetProc) stop() {
	fp.stdin.Close()
	done := make(chan struct{})
	go func() {
		fp.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fp.cmd.Process.Kill()
		<-done
	}
	fp.stdout.Close()
}

// cpuMS returns the child's user+system CPU time in milliseconds, from
// /proc/<pid>/stat.
func (fp *fleetProc) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", fp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second
	// on Linux).
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat line")
	}
	return (utime + stime) * 10, nil
}

// rssMiB returns the child's resident set size in MiB.
func (fp *fleetProc) rssMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", fp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS line")
}
