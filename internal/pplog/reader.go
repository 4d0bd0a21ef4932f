package pplog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Read parses a JSONL query log. Blank lines are skipped; a malformed line
// fails with its line number so truncated logs are diagnosable.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("query log line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("query log: %w", err)
	}
	return out, nil
}
