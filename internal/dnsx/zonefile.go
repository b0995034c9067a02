package dnsx

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a subset of the RFC 1035 §5 master-file format —
// the textual zone representation that DNS measurement projects exchange.
// Supported: $ORIGIN and $TTL directives, @ owner shorthand, blank-owner
// continuation (inherit the previous owner), relative and absolute names,
// comments, and A / AAAA / NS / CNAME / TXT records. This is richer than
// the CSV snapshot format in store.go and interoperates with standard
// tooling output.

// ZoneRecord is one parsed master-file record.
type ZoneRecord struct {
	Name  string // fully qualified, lower case, no trailing dot
	TTL   uint32
	Type  uint16
	Data  string // dotted-quad for A, target name for NS/CNAME, text for TXT
	Class uint16
}

// ParseZone reads a master file. origin seeds relative-name resolution and
// may be overridden by $ORIGIN directives; pass "" if the file is fully
// qualified.
func ParseZone(r io.Reader, origin string) ([]ZoneRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)

	origin = strings.TrimSuffix(strings.ToLower(origin), ".")
	var defaultTTL uint32 = 3600
	prevOwner := ""
	var out []ZoneRecord
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		if strings.TrimSpace(line) == "" {
			continue
		}

		// Directives.
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "$ORIGIN") {
			fields := strings.Fields(trimmed)
			if len(fields) != 2 {
				return nil, fmt.Errorf("dnsx: zone line %d: malformed $ORIGIN", lineNo)
			}
			origin = strings.TrimSuffix(strings.ToLower(fields[1]), ".")
			continue
		}
		if strings.HasPrefix(trimmed, "$TTL") {
			fields := strings.Fields(trimmed)
			if len(fields) != 2 {
				return nil, fmt.Errorf("dnsx: zone line %d: malformed $TTL", lineNo)
			}
			v, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("dnsx: zone line %d: bad $TTL: %w", lineNo, err)
			}
			defaultTTL = uint32(v)
			continue
		}

		// A leading-whitespace line inherits the previous owner.
		owner := prevOwner
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		startsWithSpace := line[0] == ' ' || line[0] == '\t'
		if !startsWithSpace {
			owner = fields[0]
			fields = fields[1:]
		}
		if owner == "" {
			return nil, fmt.Errorf("dnsx: zone line %d: record with no owner", lineNo)
		}

		rec := ZoneRecord{TTL: defaultTTL, Class: ClassIN}
		rec.Name = qualify(owner, origin)
		if rec.Name == "" {
			// A root owner "." (or "@" with no origin) qualifies to the
			// empty name, which the store and matcher cannot represent.
			return nil, fmt.Errorf("dnsx: zone line %d: empty owner name", lineNo)
		}
		prevOwner = owner

		// Optional TTL and class, in either order, before the type.
		for len(fields) > 0 {
			f := strings.ToUpper(fields[0])
			if v, err := strconv.ParseUint(f, 10, 32); err == nil {
				rec.TTL = uint32(v)
				fields = fields[1:]
				continue
			}
			if f == "IN" {
				fields = fields[1:]
				continue
			}
			break
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("dnsx: zone line %d: missing type or data", lineNo)
		}
		typ, ok := typeFromString(strings.ToUpper(fields[0]))
		if !ok {
			return nil, fmt.Errorf("dnsx: zone line %d: unsupported type %q", lineNo, fields[0])
		}
		rec.Type = typ
		data := strings.Join(fields[1:], " ")
		switch typ {
		case TypeA:
			if _, err := parseIPv4(data); err != nil {
				return nil, fmt.Errorf("dnsx: zone line %d: %w", lineNo, err)
			}
			rec.Data = data
		case TypeNS, TypeCNAME:
			rec.Data = qualify(strings.Fields(data)[0], origin)
		case TypeTXT:
			rec.Data = strings.Trim(data, `"`)
		default:
			rec.Data = data
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// StoreFromZone loads the A records of a zone into a Store (the squatting
// scanner consumes (domain, IP) pairs only).
func StoreFromZone(records []ZoneRecord) (*Store, error) {
	s := NewStore()
	for _, rec := range records {
		if rec.Type != TypeA {
			continue
		}
		ip, err := parseIPv4(rec.Data)
		if err != nil {
			return nil, err
		}
		s.Add(rec.Name, ip)
	}
	return s, nil
}

func qualify(name, origin string) string {
	name = strings.ToLower(name)
	if name == "@" {
		return origin
	}
	if strings.HasSuffix(name, ".") {
		return strings.TrimSuffix(name, ".")
	}
	if origin == "" {
		return name
	}
	return name + "." + origin
}

// stripComment removes a ';' comment, respecting quoted strings.
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

func typeFromString(s string) (uint16, bool) {
	switch s {
	case "A":
		return TypeA, true
	case "AAAA":
		return TypeAAAA, true
	case "NS":
		return TypeNS, true
	case "CNAME":
		return TypeCNAME, true
	case "TXT":
		return TypeTXT, true
	}
	return 0, false
}
