package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseMember(t *testing.T) {
	m, err := ParseMember(" n1 = http://host:8080 ")
	if err != nil {
		t.Fatalf("ParseMember: %v", err)
	}
	if m.Name != "n1" || m.Addr != "http://host:8080" {
		t.Fatalf("parsed %+v", m)
	}
	for _, bad := range []string{"", "n1", "n1=", "=http://h:1", "n1=ftp://h:1", "n 1=http://h:1"} {
		if _, err := ParseMember(bad); err == nil {
			t.Errorf("ParseMember(%q) accepted", bad)
		}
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("a=http://a:1, b=http://b:2 ,,")
	if err != nil {
		t.Fatalf("ParseMembers: %v", err)
	}
	if len(ms) != 2 || ms[0].Name != "a" || ms[1].Addr != "http://b:2" {
		t.Fatalf("parsed %v", ms)
	}
	if _, err := ParseMembers("a=http://a:1,a=http://a:2"); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestLoadMembersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	content := "# fleet roster\na=http://a:1\n\nb=http://b:2  # rack 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := LoadMembersFile(path)
	if err != nil {
		t.Fatalf("LoadMembersFile: %v", err)
	}
	if len(ms) != 2 || ms[0].Name != "a" || ms[1].Name != "b" {
		t.Fatalf("loaded %v", ms)
	}
	if _, err := LoadMembersFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("# nobody yet\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMembersFile(path); !errors.Is(err, errNoMembers) {
		t.Fatalf("comment-only file: err %v, want errNoMembers", err)
	}
}

// TestReloadFileKeepsRingOnEmptyRoster drives WatchFile's poll step
// directly, without a ticker: an empty or comment-only rewrite — what a
// poll reads after os.WriteFile has truncated the file and before it
// has written it — is reported and leaves the ring as it was, and the
// next good rewrite installs the roster of the bytes it read.
func TestReloadFileKeepsRingOnEmptyRoster(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p := testPeers(t, Config{})
	var last string
	pair := "self=http://s:1\njoiner=http://j:2\n"
	write(pair)
	if err := p.reloadFile(path, &last); err != nil {
		t.Fatalf("good roster: %v", err)
	}
	want := fmt.Sprint(p.Members())
	if len(p.Members()) != 2 || last != pair {
		t.Fatalf("good roster not installed: members %s, last %q", want, last)
	}
	owner, _ := p.Owner("some-key")

	for _, body := range []string{"", "\n\n", "# rewriting\n   # nothing yet\n"} {
		write(body)
		if err := p.reloadFile(path, &last); !errors.Is(err, errNoMembers) {
			t.Fatalf("roster %q: err %v, want errNoMembers", body, err)
		}
		if got := fmt.Sprint(p.Members()); got != want || last != pair {
			t.Fatalf("roster %q changed the ring: members %s (want %s), last %q", body, got, want, last)
		}
		if got, _ := p.Owner("some-key"); got != owner {
			t.Fatalf("roster %q moved key ownership: %v → %v", body, owner, got)
		}
	}

	write("self=http://s:1\n")
	if err := p.reloadFile(path, &last); err != nil || len(p.Members()) != 1 {
		t.Fatalf("departure: err %v, members %v", err, p.Members())
	}
}

func TestWatchFileInstallsUpdates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	if err := os.WriteFile(path, []byte("self=http://s:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := testPeers(t, Config{})
	ms, _ := LoadMembersFile(path)
	p.SetMembers(ms)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.WatchFile(ctx, path, 5*time.Millisecond, func(err error) {
			select {
			case errs <- err:
			default:
			}
		})
	}()

	// rewriteUntil keeps writing body (with a changing comment, so every
	// write differs byte-wise from whatever the watcher last latched —
	// its initial read races with the first rewrite) until ok holds.
	rewriteUntil := func(body string, ok func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rev := 0; !ok(); rev++ {
			if time.Now().After(deadline) {
				t.Fatalf("%s; members = %v", what, p.Members())
			}
			content := fmt.Sprintf("# rev %d\n%s", rev, body)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A good rewrite installs the new roster.
	rewriteUntil("self=http://s:1\njoiner=http://j:2\n",
		func() bool { return len(p.Members()) == 2 }, "joiner never installed")

	// A bad rewrite keeps the previous membership and reports the error.
	// Other errors (a poll that read the file mid-rewrite, empty) do not
	// count: the parse error must come from the bad line itself.
	gotErr := func() bool {
		select {
		case err := <-errs:
			return strings.Contains(err.Error(), "want name=addr")
		default:
			return false
		}
	}
	rewriteUntil("broken line\n", gotErr, "parse error never reported")
	if got := p.Members(); len(got) != 2 {
		t.Fatalf("bad file changed membership: %v", got)
	}

	// Recovery: a later good rewrite takes effect.
	rewriteUntil("self=http://s:1\n",
		func() bool { return len(p.Members()) == 1 }, "departure never installed")
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WatchFile did not stop on context cancel")
	}
}
