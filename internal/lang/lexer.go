// Package lang implements MiniCU, a small CUDA-like kernel language used to
// author the benchmark kernels: C-style expressions and control flow, typed
// scalars and device pointers, GPU geometry builtins (tid, ntid, ctaid,
// nctaid, global_id), math builtins, __restrict__ pointers, and
// syncthreads(). Kernels lower to the SSA IR via allocas that mem2reg then
// promotes, mirroring how Clang feeds LLVM.
package lang

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokPunct // operators and punctuation
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

type lexer struct {
	src    []rune
	pos    int
	line   int
	col    int
	tokens []token
}

// punctuation, longest-first so maximal munch works.
var puncts = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ",", ";", "?", ":",
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src), line: 1, col: 1}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.tokens, nil
		}
		c := l.src[l.pos]
		switch {
		case unicode.IsLetter(c) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
				l.advance()
			}
			l.emitAt(tokIdent, string(l.src[start:l.pos]), start)
		case unicode.IsDigit(c) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		default:
			if !l.lexPunct() {
				return nil, &Error{l.line, l.col, fmt.Sprintf("unexpected character %q", string(c))}
			}
		}
	}
}

func (l *lexer) advance() {
	if l.src[l.pos] == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	l.pos++
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsSpace(c) {
			l.advance()
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*' {
			l.advance()
			l.advance()
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.advance()
			}
			if l.pos+1 < len(l.src) {
				l.advance()
				l.advance()
			}
			continue
		}
		return
	}
}

func (l *lexer) emit(k tokKind, text string) {
	l.tokens = append(l.tokens, token{k, text, l.line, l.col})
}

func (l *lexer) emitAt(k tokKind, text string, _ int) {
	l.tokens = append(l.tokens, token{k, text, l.line, l.col - len(text)})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(c) {
			l.advance()
			continue
		}
		if c == '.' {
			isFloat = true
			l.advance()
			continue
		}
		if c == 'e' || c == 'E' {
			isFloat = true
			l.advance()
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.advance()
			}
			continue
		}
		if c == 'x' || c == 'X' {
			l.advance()
			continue
		}
		if c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' {
			// hex digits (only valid after 0x; the parser validates)
			l.advance()
			continue
		}
		break
	}
	text := string(l.src[start:l.pos])
	// Suffixes f/F (float literal), L/l (long literal).
	if l.pos < len(l.src) && (l.src[l.pos] == 'f' || l.src[l.pos] == 'F' || l.src[l.pos] == 'L' || l.src[l.pos] == 'l') {
		text += string(l.src[l.pos])
		if l.src[l.pos] == 'f' || l.src[l.pos] == 'F' {
			isFloat = true
		}
		l.advance()
	}
	if isFloat || strings.ContainsAny(text, ".eE") && !strings.HasPrefix(text, "0x") && !strings.HasPrefix(text, "0X") {
		l.emitAt(tokFloat, text, start)
	} else {
		l.emitAt(tokInt, text, start)
	}
	return nil
}

func (l *lexer) lexPunct() bool {
	rest := string(l.src[l.pos:min(l.pos+3, len(l.src))])
	for _, p := range puncts {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			l.emitAt(tokPunct, p, 0)
			return true
		}
	}
	return false
}
