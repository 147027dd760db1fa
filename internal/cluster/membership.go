package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// ParseMember parses one "name=addr" entry.
func ParseMember(s string) (Member, error) {
	name, addr, ok := strings.Cut(strings.TrimSpace(s), "=")
	if !ok {
		return Member{}, fmt.Errorf("cluster: member %q: want name=addr", s)
	}
	m := Member{Name: strings.TrimSpace(name), Addr: strings.TrimSpace(addr)}
	if err := checkName(m.Name); err != nil {
		return Member{}, err
	}
	if err := checkAddr(m.Addr); err != nil {
		return Member{}, err
	}
	return m, nil
}

// ParseMembers parses a comma-separated "name=addr,name=addr" list (the
// -peers flag). Empty elements are skipped; duplicate names are an
// error, since the ring would silently drop all but the first.
func ParseMembers(s string) ([]Member, error) {
	return parseMemberList(strings.Split(s, ","))
}

// LoadMembersFile reads a membership file: one name=addr per line,
// blank lines and #-comments ignored. A file that lists no members is
// an error (see parseMembersData).
func LoadMembersFile(path string) ([]Member, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read members file: %w", err)
	}
	return parseMembersData(data)
}

// errNoMembers rejects a roster with no members. An empty or
// comment-only file is what a reader sees while the file is being
// rewritten (os.WriteFile truncates before it writes); installing it
// would collapse the ring to self-only. A fleet of one is configured by
// giving no roster at all.
var errNoMembers = errors.New("cluster: members file lists no members")

// parseMembersData parses the contents of a membership file.
func parseMembersData(data []byte) ([]Member, error) {
	lines := strings.Split(string(data), "\n")
	for i, l := range lines {
		if c := strings.IndexByte(l, '#'); c >= 0 {
			l = l[:c]
		}
		lines[i] = l
	}
	ms, err := parseMemberList(lines)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, errNoMembers
	}
	return ms, nil
}

func parseMemberList(entries []string) ([]Member, error) {
	var ms []Member
	seen := make(map[string]bool)
	for _, e := range entries {
		if strings.TrimSpace(e) == "" {
			continue
		}
		m, err := ParseMember(e)
		if err != nil {
			return nil, err
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		ms = append(ms, m)
	}
	return ms, nil
}

// WatchFile polls a membership file and installs each successful parse
// whose content differs from the last one, so nodes join and leave the
// ring without a restart. A read or parse failure — an empty roster
// included — keeps the previous membership (a half-written file must
// not empty the ring) and is reported through onErr (nil ignores).
// Blocks until ctx is done; run it in a goroutine.
func (p *Peers) WatchFile(ctx context.Context, path string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	var last string
	if data, err := os.ReadFile(path); err == nil {
		last = string(data)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := p.reloadFile(path, &last); err != nil && onErr != nil {
			onErr(err)
		}
	}
}

// reloadFile is one WatchFile poll: it reads path once and, when the
// bytes differ from *last, installs the roster parsed from exactly
// those bytes and records them in *last. On error nothing changes.
func (p *Peers) reloadFile(path string, last *string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cluster: read members file: %w", err)
	}
	if string(data) == *last {
		return nil
	}
	ms, err := parseMembersData(data)
	if err != nil {
		return err
	}
	*last = string(data)
	p.SetMembers(ms)
	return nil
}
