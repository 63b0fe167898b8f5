package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload runs in: the repository it measures, the
// sompid binary built from it, and the registry of child processes and
// scratch directories that must not outlive the benchmark.
type env struct {
	root     string // repository root (parent of bench/)
	outDir   string // bench/out: binary, data dirs, span files, ledger
	sompid   string // the built cmd/sompid binary
	dataRoot string // where durable workloads put -data-dir
	// fsync is -fsync for the durable children and the in-process stores.
	// It is not a choice: on tmpfs it is on (the issue's durable path, and
	// steady), anywhere else it is off and the ledger says unstable_fs.
	fsync  bool
	buildS float64

	mu   sync.Mutex
	live map[*child]struct{}
	dirs map[string]struct{}
}

// findRoot walks up from the working directory to the repository root:
// the directory that holds cmd/sompid. `go run -C bench .` starts the
// benchmark inside bench/, a built binary may start anywhere below the
// root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sompid", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no cmd/sompid above the working directory — run it inside the repository")
		}
		dir = parent
	}
}

func newEnv(dataRoot string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		outDir: filepath.Join(root, "bench", "out"),
		live:   make(map[*child]struct{}),
		dirs:   make(map[string]struct{}),
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	e.dataRoot = dataRoot
	if e.dataRoot == "" {
		e.dataRoot = e.outDir
	}
	e.fsync = fsType(e.dataRoot) == "tmpfs"
	e.sompid = filepath.Join(e.outDir, "sompid")
	return e, nil
}

// build compiles cmd/sompid from the repository the benchmark sits in.
// Its wall time is reported on its own and is part of no metric.
func (e *env) build() error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.sompid, "./cmd/sompid")
	cmd.Dir = e.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/sompid: %v\n%s", err, stderr.String())
	}
	e.buildS = time.Since(start).Seconds()
	return nil
}

// tempDir makes a scratch directory under the data root and registers
// it for removal on every exit path.
func (e *env) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(e.dataRoot, prefix+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.dirs[dir] = struct{}{}
	e.mu.Unlock()
	return dir, nil
}

func (e *env) removeDir(dir string) {
	e.mu.Lock()
	delete(e.dirs, dir)
	e.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanup kills and reaps every live child and removes every scratch
// directory. It is idempotent and runs on normal return, on error and
// from the signal handler.
func (e *env) cleanup() {
	e.mu.Lock()
	children := make([]*child, 0, len(e.live))
	for c := range e.live {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(e.dirs))
	for d := range e.dirs {
		dirs = append(dirs, d)
	}
	e.dirs = make(map[string]struct{})
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// child is one sompid process.
type child struct {
	env    *env
	cmd    *exec.Cmd
	url    string
	ctl    *client // for health, scrapes and status: never a measured connection
	stderr *tailBuffer
	waited chan struct{} // closed once Wait returned
}

// tailBuffer keeps the last few KiB a child wrote to stderr, for the
// error message when it dies or never becomes healthy.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort reserves an ephemeral TCP port and releases it for a child
// to claim. Cluster nodes need their URLs before either starts; the
// reuse race is tiny and a lost race fails the run loudly at start-up.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// start execs sompid with the given flags and returns once the process
// exists. addr "" lets the kernel pick the port (the listen banner
// tells which); cluster nodes pass the address they were promised.
func (e *env) start(addr string, args ...string) (*child, error) {
	listen := addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	args = append([]string{"-addr", listen, "-log-level", "error"}, args...)
	cmd := exec.Command(e.sompid, args...)
	// The kernel SIGKILLs the child when the benchmark dies — the one exit
	// path (SIGKILL of the parent) cleanup cannot run on.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{env: e, cmd: cmd, stderr: &tailBuffer{}, waited: make(chan struct{})}
	cmd.Stderr = c.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting sompid: %w", err)
	}
	e.mu.Lock()
	e.live[c] = struct{}{}
	e.mu.Unlock()

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if i := strings.Index(sc.Text(), "http://"); i >= 0 && !sent {
				banner <- strings.Fields(sc.Text()[i:])[0]
				sent = true
			}
		}
		if !sent {
			close(banner)
		}
		cmd.Wait()
		close(c.waited)
	}()
	if addr != "" {
		c.url = "http://" + addr
	} else {
		select {
		case u, ok := <-banner:
			if !ok {
				c.kill()
				return nil, fmt.Errorf("sompid exited before listening: %s", c.stderr)
			}
			c.url = u
		case <-time.After(20 * time.Second):
			c.kill()
			return nil, fmt.Errorf("sompid printed no listen banner: %s", c.stderr)
		}
	}
	c.ctl = &client{base: c.url, hc: &http.Client{Timeout: time.Minute}}
	return c, nil
}

// kill SIGKILLs the child and waits until it is reaped. Safe to call
// twice.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.waited
	c.env.mu.Lock()
	delete(c.env.live, c)
	c.env.mu.Unlock()
}

// waitHealthy polls /healthz until it answers 200.
func (c *child) waitHealthy() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, err := c.ctl.get("/healthz")
		if err == nil {
			return nil
		}
		select {
		case <-c.waited:
			return fmt.Errorf("sompid died before it was healthy: %s", c.stderr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v: %s", c.url, err, c.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is USER_HZ: the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds is the child's user+system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// rssPeakMB is the child's resident-set high-water mark (VmHWM).
func (c *child) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// machine is the shape of the host a ledger was measured on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDir    string `json:"data_dir"`
	DataDirFS  string `json:"data_dir_fs"`
	Fsync      bool   `json:"fsync"`
}

func (e *env) machine() machine {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		DataDir:    e.dataRoot,
		DataDirFS:  fsType(e.dataRoot),
		Fsync:      e.fsync,
	}
}

// fsType names the filesystem a path lives on: the type of the longest
// mount point in /proc/mounts that prefixes it.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
