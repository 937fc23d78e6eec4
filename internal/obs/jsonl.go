package obs

import (
	"bufio"
	"bytes"
	"io"
)

// scanJSONL feeds every non-blank line of r to decode and counts the lines
// decode turns down. Real JSONL files get damaged — a crashed run leaves a
// truncated final line, interleaved stderr lands between records — and
// several record types share one stream, so a reader skips what it cannot
// use and the intact majority stays analyzable; callers that care surface
// the count. Only an I/O error or a line over maxLine bytes is an error.
func scanJSONL(r io.Reader, maxLine int, decode func(line []byte) bool) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !decode(line) {
			skipped++
		}
	}
	return skipped, sc.Err()
}
