package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// This file is the process half of "drive a live sompid": build a
// command once, boot it as a child, learn where it listens, wait until
// it is healthy, stop it cleanly or kill it, and talk JSON to it. Every
// process-level smoke stage (cmd/smoke) stands on these few calls.

// Build compiles one of the repository's commands (pkg is a package
// path such as "./cmd/sompid", resolved against the working directory)
// into dir and returns the binary's path.
func Build(dir, pkg string) (string, error) {
	bin := filepath.Join(dir, filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("building %s: %w", pkg, err)
	}
	return bin, nil
}

// FreePort reserves an ephemeral TCP port and releases it for a child
// to claim. Cluster nodes need each other's URLs before either starts;
// the reuse race is tiny and a lost race fails the child's start loudly.
func FreePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// Proc is one child sompid process.
type Proc struct {
	// URL is the base URL the child announced on its listen banner.
	URL string

	cmd *exec.Cmd
	// exited closes once the child has been reaped; waitErr is final by
	// then.
	exited  chan struct{}
	waitErr error
}

// Start execs a sompid binary and returns once it answers /healthz.
// addr "" lets the kernel pick the port; either way the base URL is
// parsed from the listen banner the child prints on stdout (structured
// logs go to stderr, which passes through to ours).
func Start(bin, addr string, args ...string) (*Proc, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, exited: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sent := false; sc.Scan(); {
			if i := strings.Index(sc.Text(), "http://"); i >= 0 && !sent {
				banner <- strings.Fields(sc.Text()[i:])[0]
				sent = true
			}
		}
		close(banner)
		io.Copy(io.Discard, stdout) // a line too long for the scanner must not wedge the child
		// Wait only after the pipe is drained, as os/exec requires.
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case u, ok := <-banner:
		if !ok {
			p.Kill()
			return nil, fmt.Errorf("%s exited before printing a listen banner", bin)
		}
		p.URL = u
	case <-time.After(15 * time.Second):
		p.Kill()
		return nil, fmt.Errorf("%s printed no listen banner on stdout", bin)
	}
	err = Eventually(15*time.Second, p.URL+" healthy", func() error {
		_, err := Get(p.URL + "/healthz")
		return err
	})
	if err != nil {
		p.Kill()
		return nil, err
	}
	return p, nil
}

// Stop SIGTERMs the child and requires a clean exit (status 0) within
// 15 s — the graceful-shutdown check.
func (p *Proc) Stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		if p.waitErr != nil {
			return fmt.Errorf("%s exited uncleanly after SIGTERM: %w", p.URL, p.waitErr)
		}
		return nil
	case <-time.After(15 * time.Second):
		return fmt.Errorf("%s did not exit within 15s of SIGTERM", p.URL)
	}
}

// Kill SIGKILLs the child — no drain, no shutdown hooks — and returns
// once it is reaped. Safe on a child that already exited, so callers
// defer it unconditionally.
func (p *Proc) Kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// Eventually polls cond every 50 ms until it returns nil, failing with
// cond's last error once timeout has passed. what names the awaited
// condition in that failure.
func Eventually(timeout time.Duration, what string, cond func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := cond()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v: %w", what, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// httpClient bounds every helper call: a wedged child fails its stage
// instead of hanging it. Generous, because ?sync=1 drains and cold plans
// on a loaded CI box take seconds.
var httpClient = &http.Client{Timeout: 2 * time.Minute}

// Get fetches a URL and returns the body of a 200 response; any other
// status is an error carrying the status and body.
func Get(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	body, _, err := readOK("GET", url, resp)
	return body, err
}

// Post sends a JSON body and returns the body and headers of a 200
// response; any other status is an error.
func Post(url string, body []byte) ([]byte, http.Header, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	return readOK("POST", url, resp)
}

func readOK(method, url string, resp *http.Response) ([]byte, http.Header, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, body)
	}
	return body, resp.Header, nil
}

// GetJSON fetches a URL and decodes the 200 response into out.
func GetJSON(url string, out any) error {
	body, err := Get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// PostJSON marshals in, posts it, and decodes the 200 response into out
// (nil out discards the body).
func PostJSON(url string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	body, _, err := Post(url, payload)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(body, out)
}
