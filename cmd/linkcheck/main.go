// Command linkcheck validates the repository's markdown cross-links
// offline: every relative link and image reference in the given files
// (or the default doc set) must point at a file that exists, and every
// intra-document anchor must match a heading in the target file.
// External http(s) links are recognized but not fetched — CI stays
// hermetic — and unresolvable links exit nonzero with a file:line
// listing.
//
// Usage:
//
//	go run ./cmd/linkcheck [files...]
//	go run ./cmd/linkcheck            # README.md docs/*.md *.md
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// linkRe matches inline markdown links and images: [text](target) and
// ![alt](target). Reference-style links are rare in this repo and out
// of scope.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

var headingRe = regexp.MustCompile("^#{1,6}\\s+(.+?)\\s*#*\\s*$")

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		var err error
		files, err = defaultFiles()
		if err != nil {
			fmt.Fprintln(os.Stderr, "linkcheck:", err)
			os.Exit(2)
		}
	}

	broken := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "linkcheck:", err)
			os.Exit(2)
		}
		for _, problem := range checkFile(file, string(data)) {
			fmt.Println(problem)
			broken++
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken link(s)\n", broken)
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d file(s) clean\n", len(files))
}

func defaultFiles() ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// proseLines splits content into lines and blanks every line of a
// fenced code block, fences included, so neither links nor headings are
// read from code while line numbers stay aligned.
func proseLines(content string) []string {
	lines := strings.Split(content, "\n")
	inFence := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			lines[i] = ""
		} else if inFence {
			lines[i] = ""
		}
	}
	return lines
}

func checkFile(file, content string) []string {
	var problems []string
	for lineNo, line := range proseLines(content) {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if problem := checkTarget(file, target); problem != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: %s", file, lineNo+1, problem))
			}
		}
	}
	return problems
}

func checkTarget(file, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return "" // external; not fetched
	case strings.HasPrefix(target, "#"):
		return checkAnchor(file, target[1:])
	}
	path := target
	anchor := ""
	if i := strings.IndexByte(target, '#'); i >= 0 {
		path, anchor = target[:i], target[i+1:]
	}
	resolved := filepath.Join(filepath.Dir(file), path)
	if _, err := os.Stat(resolved); err != nil {
		return fmt.Sprintf("broken link %q (%s does not exist)", target, resolved)
	}
	if anchor != "" && strings.HasSuffix(path, ".md") {
		if problem := checkAnchorIn(resolved, anchor); problem != "" {
			return fmt.Sprintf("broken link %q: %s", target, problem)
		}
	}
	return ""
}

func checkAnchor(file, anchor string) string {
	if problem := checkAnchorIn(file, anchor); problem != "" {
		return fmt.Sprintf("broken anchor %q: %s", "#"+anchor, problem)
	}
	return ""
}

func checkAnchorIn(file, anchor string) string {
	data, err := os.ReadFile(file)
	if err != nil {
		return err.Error()
	}
	for _, line := range proseLines(string(data)) {
		if m := headingRe.FindStringSubmatch(line); m != nil && slugify(m[1]) == anchor {
			return ""
		}
	}
	return fmt.Sprintf("no heading slug %q in %s", anchor, file)
}

// slugify approximates GitHub's heading-anchor algorithm: lowercase,
// drop everything but letters/digits/spaces/hyphens, spaces to hyphens.
func slugify(heading string) string {
	// Strip inline code/emphasis markers before slugging (GitHub keeps
	// underscores in slugs).
	heading = strings.NewReplacer("`", "", "*", "").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
