// Package fleet is the multi-daemon harness for mdaserve's work-stealing
// fleet: it boots N real mdaserve processes (built by clitest) on one shared
// state directory, discovers their advertised addresses through the
// membership registry, and hands tests a failover serve.Client spanning the
// cluster. Tests kill nodes with SIGKILL to drive the lease-steal protocol
// end to end — the in-process halves of the protocol live in internal/serve;
// this package proves them across real process boundaries.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdacache/internal/clitest"
	"mdacache/internal/serve"
)

// Node is one fleet member: a real mdaserve process plus its identity and
// the base URL it advertised through the membership registry.
type Node struct {
	ID   string
	URL  string
	Proc *clitest.Proc
}

// Cluster is a running fleet sharing one state directory.
type Cluster struct {
	State string
	Nodes []*Node
}

// Start boots n mdaserve daemons named node0..node{n-1} on a shared state
// dir and waits until each heartbeats an address that answers /healthz.
// extra flags are passed to every daemon. Daemons are killed when the test
// ends (via clitest's cleanup); the state dir survives under
// MDASERVE_ARTIFACT_DIR for post-mortems, else it is a test temp dir.
func Start(t testing.TB, n int, extra ...string) *Cluster {
	t.Helper()
	c := &Cluster{State: stateDir(t)}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node%d", i)
		args := append([]string{
			"-addr", "127.0.0.1:0", "-state-dir", c.State, "-node-id", id,
		}, extra...)
		c.Nodes = append(c.Nodes, &Node{ID: id, Proc: clitest.Start(t, "mdaserve", args...)})
	}
	for _, node := range c.Nodes {
		node.URL = AwaitAddr(t, c.State, node.ID, node.Proc)
	}
	return c
}

// AwaitAddr blocks until node id's membership record under state names an
// address that answers /healthz, and returns that base URL. A record left by
// a dead incarnation of the same node is ignored until the live one
// overwrites it. proc is the daemon, whose stderr a timeout reports.
func AwaitAddr(t testing.TB, state, id string, proc *clitest.Proc) string {
	t.Helper()
	path := filepath.Join(state, "nodes", id+".json")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil {
			var rec struct {
				Addr string `json:"addr"`
			}
			if json.Unmarshal(data, &rec) == nil && rec.Addr != "" {
				if resp, err := http.Get(rec.Addr + "/healthz"); err == nil {
					resp.Body.Close()
					return rec.Addr
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("fleet: %s never heartbeat a live address\nstderr:\n%s", id, proc.Stderr())
	return ""
}

// URLs returns every node's advertised base URL, cluster order.
func (c *Cluster) URLs() []string {
	urls := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		urls[i] = n.URL
	}
	return urls
}

// Client returns a failover client spanning the whole cluster.
func (c *Cluster) Client() *serve.Client {
	return &serve.Client{Nodes: c.URLs(), MaxBackoff: 500 * time.Millisecond}
}

// Node returns the member with the given ID.
func (c *Cluster) Node(t testing.TB, id string) *Node {
	t.Helper()
	for _, n := range c.Nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("fleet: no node %q in cluster", id)
	return nil
}

// Kill SIGKILLs the named node — no drain, no cleanup — and waits for the
// process to be reaped so its ports and flocks are certainly released.
func (c *Cluster) Kill(t testing.TB, id string) {
	t.Helper()
	n := c.Node(t, id)
	n.Proc.Kill()
	if code := n.Proc.Wait(10 * time.Second); code != -1 {
		t.Fatalf("fleet: SIGKILLed %s exited %d, want -1", id, code)
	}
}

// stateDir mirrors the cmd/mdaserve test harness: a fresh per-test state
// directory, kept under MDASERVE_ARTIFACT_DIR when set (the CI fleet-smoke
// job uploads it on failure), auto-cleaned otherwise.
func stateDir(t testing.TB) string {
	t.Helper()
	root := os.Getenv("MDASERVE_ARTIFACT_DIR")
	if root == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatalf("fleet: artifact dir: %v", err)
	}
	dir, err := os.MkdirTemp(root, strings.ReplaceAll(t.Name(), "/", "_")+"-*")
	if err != nil {
		t.Fatalf("fleet: artifact dir: %v", err)
	}
	return dir
}
