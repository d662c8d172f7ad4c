package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rangesearch/internal/core"
	"rangesearch/internal/eio"
	"rangesearch/internal/epst"
	"rangesearch/internal/geom"
	"rangesearch/internal/server"
)

// pageSize is rsserve's default -page.
const pageSize = 4096

// storeManifest is the part of rsserve's X.manifest.json a prebuilt
// durable store needs for rsserve to reopen it.
type storeManifest struct {
	PageSize int        `json:"page_size"`
	Durable  bool       `json:"durable"`
	WALPages int        `json:"wal_pages,omitempty"`
	Hdr      eio.PageID `json:"hdr"`
	Anchor   eio.PageID `json:"anchor,omitempty"`
}

// prebuild bulk-loads pts into a fresh durable store at path through the
// public constructors rsserve's stack is made of — a FileStore under a
// TxStore with the default WAL — and writes the manifest rsserve reopens.
func prebuild(path string, pts []geom.Point) error {
	for _, f := range []string{path, path + ".manifest.json", path + ".wbuf"} {
		if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	fs, err := eio.CreateFileStore(path, pageSize)
	if err != nil {
		return err
	}
	tx, err := eio.NewTxStore(fs, eio.TxOptions{})
	if err != nil {
		fs.Close()
		return err
	}
	idx, err := core.BuildThreeSided(tx, epst.Options{}, append([]geom.Point(nil), pts...))
	if err != nil {
		tx.Close()
		return fmt.Errorf("build %s: %w", path, err)
	}
	m := storeManifest{PageSize: pageSize, Durable: true, WALPages: eio.DefaultWALPages, Hdr: idx.HeaderID(), Anchor: tx.Anchor()}
	if err := tx.Sync(); err != nil {
		tx.Close()
		return err
	}
	if err := tx.Close(); err != nil {
		return err
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path+".manifest.json", raw, 0o644)
}

// checkStore reopens a drained store the way rsserve does (WAL recovery
// first) and returns its live point count, failing if any page is
// unreachable from the tree or the transactional metadata.
func checkStore(path string) (int, error) {
	raw, err := os.ReadFile(path + ".manifest.json")
	if err != nil {
		return 0, err
	}
	var m storeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("manifest %s: %w", path, err)
	}
	fs, err := eio.OpenFileStore(path)
	if err != nil {
		return 0, err
	}
	tx, err := eio.OpenTxStore(fs, m.Anchor)
	if err != nil {
		fs.Close()
		return 0, err
	}
	defer tx.Close()
	idx, err := core.OpenThreeSided(tx, m.Hdr)
	if err != nil {
		return 0, err
	}
	n, err := idx.Len()
	if err != nil {
		return 0, err
	}
	reachable, err := idx.Tree().AppendAllPages(nil)
	if err != nil {
		return 0, err
	}
	meta, err := tx.MetaPages()
	if err != nil {
		return 0, err
	}
	rep, err := eio.FindLeaks(tx, append(reachable, meta...))
	if err != nil {
		return 0, err
	}
	if len(rep.Leaked) > 0 {
		return n, fmt.Errorf("store %s: %d leaked pages", path, len(rep.Leaked))
	}
	return n, nil
}

// freeAddr returns a loopback address with a port free at call time.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// proc is one server process the benchmark started.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startProc launches bin with args plus -addr on the placement's CPU and
// waits until it answers PING.
func startProc(place placement, bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := place.command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even when the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: filepath.Base(bin), addr: addr, cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cl, err := server.Dial(addr, server.ClientOptions{DialTimeout: time.Second, IOTimeout: 5 * time.Second})
		if err == nil {
			err = cl.Ping([]byte("up"))
			cl.Close()
			if err == nil {
				return p, nil
			}
		}
		select {
		case werr := <-p.done:
			p.done <- werr
			p.log.Close()
			return nil, fmt.Errorf("%s exited during boot (%v); log %s", p.name, werr, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("%s did not answer PING within 60s; log %s", p.name, logPath)
		}
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// stop sends SIGTERM and waits for the drain; rsserve exits 0 only when
// the drained store is scrub-clean and synced.
func (p *proc) stop() error {
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-p.done
		return err
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("%s drain: %w (log %s)", p.name, err, p.log.Name())
		}
		return nil
	case <-time.After(90 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not drain within 90s", p.name)
	}
}

// kill stops the process without a drain and waits for it to exit.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
