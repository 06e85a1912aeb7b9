package targetserver

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"pace/internal/httpedge"
)

// ClientHeader names the self-reported client identity header used for
// per-client rate limiting when no auth tokens are configured.
const ClientHeader = httpedge.ClientHeader

// ParseAuthTokens reads a token file: one "token client-name" pair per
// line, '#' comments and blank lines ignored. This is the -auth-tokens
// format of cmd/paced.
func ParseAuthTokens(r io.Reader) (map[string]string, error) {
	tokens := make(map[string]string)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("auth tokens line %d: want \"token client-name\", got %q", line, text)
		}
		if _, dup := tokens[fields[0]]; dup {
			return nil, fmt.Errorf("auth tokens line %d: duplicate token", line)
		}
		tokens[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("auth tokens: %w", err)
	}
	return tokens, nil
}
