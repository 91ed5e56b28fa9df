package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlugify(t *testing.T) {
	for _, tc := range []struct{ heading, want string }{
		{"Run the benchmark", "run-the-benchmark"},
		{"Service campaigns (`-algo service`)", "service-campaigns--algo-service"},
		{"E9 — adversary campaign tails", "e9--adversary-campaign-tails"},
		{"*Emphasis* and `code`", "emphasis-and-code"},
		{"keep_underscores and-hyphens", "keep_underscores-and-hyphens"},
		{"5. Digest telemetry", "5-digest-telemetry"},
	} {
		if got := slugify(tc.heading); got != tc.want {
			t.Errorf("slugify(%q) = %q, want %q", tc.heading, got, tc.want)
		}
	}
}

// writeDocs lays out a small markdown tree in a temporary directory and
// returns the path of its index file.
func writeDocs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"index.md":  "# Intro\n\nSee [target](target.md).\n",
		"target.md": "# Target\n\n## Run the benchmark\n\ntext\n",
		// The only "# run the benchmark" line is a shell comment inside
		// a fence, which is no heading.
		"fenced.md": "# Fenced\n\n```sh\n# run the benchmark\nbash bench/run.sh\n```\n",
		"main.go":   "package main\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "index.md")
}

func TestCheckTarget(t *testing.T) {
	index := writeDocs(t)
	for _, tc := range []struct {
		target string
		broken string // substring of the problem; "" = the link is fine
	}{
		{"https://example.com/missing#anchor", ""},
		{"http://example.com", ""},
		{"mailto:someone@example.com", ""},
		{"target.md", ""},
		{"target.md#run-the-benchmark", ""},
		{"target.md#no-such-heading", `no heading slug "no-such-heading"`},
		{"fenced.md#run-the-benchmark", `no heading slug "run-the-benchmark"`},
		{"missing.md", "does not exist"},
		{"missing.md#intro", "does not exist"},
		{"main.go#L1", ""},
		{"#intro", ""},
		{"#outro", `broken anchor "#outro"`},
	} {
		got := checkTarget(index, tc.target)
		switch {
		case tc.broken == "" && got != "":
			t.Errorf("checkTarget(%q) = %q, want no problem", tc.target, got)
		case tc.broken != "" && !strings.Contains(got, tc.broken):
			t.Errorf("checkTarget(%q) = %q, want a problem containing %q", tc.target, got, tc.broken)
		}
	}
}

func TestCheckFile(t *testing.T) {
	index := writeDocs(t)
	for _, tc := range []struct {
		name, content string
		want          []string // problem prefixes, in order
	}{
		{"clean", "[a](target.md) and ![b](main.go) and [c](https://x.y)\n", nil},
		{"broken links keep their line", "# Title\n\n[a](gone.md)\n\ntext [b](target.md#nope) [c](target.md)\n",
			[]string{index + ":3: broken link", index + ":5: broken link"}},
		{"links inside code fences are skipped", "intro\n```md\n[a](gone.md)\n```\n  ```\n[b](gone.md#x)\n  ```\nafter [c](gone.md)\n",
			[]string{index + ":8: broken link"}},
	} {
		got := checkFile(index, tc.content)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d problems %q, want %d", tc.name, len(got), got, len(tc.want))
			continue
		}
		for i, prefix := range tc.want {
			if !strings.HasPrefix(got[i], prefix) {
				t.Errorf("%s: problem %d = %q, want prefix %q", tc.name, i, got[i], prefix)
			}
		}
	}
}
