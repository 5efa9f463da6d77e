package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// buildGristd compiles the daemon once per test binary.
func buildGristd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gristd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building gristd: %v\n%s", err, out)
	}
	return bin
}

// startGristd launches the daemon and returns its base URL (parsed
// from the startup banner) and the running process handle. The child is
// killed and reaped when the test ends, whichever assertion ends it.
func startGristd(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() // errors: the test may have killed and reaped it already
		cmd.Wait()
	})
	addrRe := regexp.MustCompile(`gristd on http://([^/]+)/`)
	lines := bufio.NewScanner(stdout)
	var base string
	for lines.Scan() {
		if m := addrRe.FindStringSubmatch(lines.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatal("gristd never printed its listen address")
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)
	return cmd, base
}

// waitHealthy polls /healthz until it answers 200 or the deadline
// passes, returning the decoded body.
func waitHealthy(t *testing.T, base string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				var doc map[string]any
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Fatalf("healthz body unparsable: %v: %s", err, body)
				}
				return doc
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
	return nil
}

// waitEpochs polls /v1/epochs until it lists exactly want or the
// deadline passes: the daemon answers /healthz before its first poll has
// published every epoch on disk.
func waitEpochs(t *testing.T, base string, want []int) {
	t.Helper()
	var got struct {
		Epochs []int `json:"epochs"`
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/epochs")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err == nil && resp.StatusCode == 200 && fmt.Sprint(got.Epochs) == fmt.Sprint(want) {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("/v1/epochs = %v, want %v", got.Epochs, want)
}

// kill -9 and restart: a gristd brought up over the shard directory of
// a killed predecessor must reconstruct the snapshot window purely
// from disk — including quarantining an epoch corrupted while it was
// down — and serve queries again.
func TestGristdSurvivesKillDashNine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon twice")
	}
	bin := buildGristd(t)
	dir := t.TempDir()
	common := []string{"-addr", "127.0.0.1:0", "-level", "3", "-layers", "4",
		"-data", dir, "-poll", "100ms"}

	// First life: self-generate four epochs into -data and serve them.
	first, base := startGristd(t, bin, append([]string{"-replay.epochs", "4"}, common...)...)
	waitHealthy(t, base)
	waitEpochs(t, base, []int{0, 1, 2, 3})
	resp, err := http.Get(base + "/v1/point?lat=40.7&lon=-74.0&field=t_sfc")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("first-life point query = (%v, %v)", resp, err)
	}
	resp.Body.Close()

	// SIGKILL: no shutdown path runs, the directory is whatever the
	// atomic write protocol left behind.
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	// While the daemon is dead, one epoch's shard rots on disk.
	shards, err := filepath.Glob(filepath.Join(dir, "shard-e000001-*.grist"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no epoch-1 shard to corrupt (%v, %v)", shards, err)
	}
	raw, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(shards[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second life: same directory, no replay — state comes from disk.
	_, base2 := startGristd(t, bin, common...)
	waitEpochs(t, base2, []int{0, 2, 3}) // epoch 1 is quarantined, the rest reconstruct
	hz := waitHealthy(t, base2)
	quarantined, _ := hz["quarantined"].([]any)
	if len(quarantined) != 1 || int(quarantined[0].(float64)) != 1 {
		t.Fatalf("restart healthz quarantined = %v, want [1]", hz["quarantined"])
	}
	// The corrupt epoch is older than the published head, so the plane
	// is behind by zero epochs: healthy, not degraded.
	if hz["status"] != "ok" {
		t.Fatalf("restart healthz status = %v, want ok", hz["status"])
	}

	// Queries serve from the reconstructed window, including history.
	resp, err = http.Get(base2 + "/v1/point?lat=40.7&lon=-74.0&field=t_sfc&epoch=2")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("restart point query = (%v, %v)", resp, err)
	}
	resp.Body.Close()
	// The quarantined epoch is not served.
	resp, err = http.Get(base2 + "/v1/point?lat=40.7&lon=-74.0&field=t_sfc&epoch=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("quarantined-epoch query = %d (%s), want 404", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not retained") {
		t.Fatalf("quarantined-epoch error body = %s", body)
	}
}

// The daemon refuses to start with a bogus fault profile and names the
// known ones.
func TestGristdRejectsUnknownFaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon")
	}
	bin := buildGristd(t)
	cmd := exec.Command(bin, "-replay.epochs", "1", "-fault.profile", "fsbogus")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("daemon accepted -fault.profile fsbogus: %s", out)
	}
	if !strings.Contains(string(out), "fsflaky") {
		t.Fatalf("error does not name the known profiles: %s", out)
	}
}

// gristd under -fault.profile fsflaky over its own replay directory:
// the README quickstart scenario. The daemon must come up healthy and
// answer queries while every read of its shard directory is subject to
// injected EIO and bit flips.
func TestGristdServesUnderFaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon")
	}
	bin := buildGristd(t)
	dir := t.TempDir()
	_, base := startGristd(t, bin,
		"-addr", "127.0.0.1:0", "-level", "3", "-layers", "4",
		"-data", dir, "-poll", "100ms", "-replay.epochs", "3",
		"-fault.profile", "fsflaky", "-fault.seed", "11")
	waitHealthy(t, base)
	ok := 0
	for i := 0; i < 20; i++ {
		resp, err := http.Get(base + fmt.Sprintf("/v1/point?lat=%d&lon=%d&field=ps", -40+i*4, i*10))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == 200 {
			ok++
		} else if resp.StatusCode >= 500 && resp.Header.Get("X-Grist-Reject") != "breaker" {
			t.Fatalf("query %d: non-breaker %d under fsflaky", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if ok == 0 {
		t.Fatal("no query succeeded under fsflaky")
	}
}
