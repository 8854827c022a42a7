// Package store is an embedded media store: SVID streams are written once
// at ingest under a write-ahead log, each with a per-GOP byte-offset index
// persisted in a sidecar, and optionally with low-resolution renditions
// materialized alongside the primary. Queries then open any stream with its
// index already in hand and seek straight to sampled GOPs — the layout that
// makes stride-sampling cost O(sampled GOPs) instead of O(stream length).
//
// Layout under the store directory:
//
//	wal.log        ingest journal: Begin/Commit records, CRC-framed
//	<name>.svid    the primary stream, byte-for-byte as ingested
//	<name>.r<i>.svid  rendition i, re-encoded at ingest
//	<name>.idx     sidecar: per-stream geometry + GOP tables (see index.go)
//	<name>.scr     sidecar: proxy score tables, optional (see scores.go)
//
// Crash safety follows the classic WAL protocol: a Begin record is fsynced
// before any data file is written and a Commit record is fsynced after all
// of them, so Open can identify half-ingested videos (Begin without Commit,
// or files with no journal entry at all) and remove their files. Committed
// videos load with checksum-verified sidecars.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/img"
)

// Stream is one encoded rendition resident in the store: its bytes, probed
// geometry, and the ingest-time GOP table a decoder seeks with.
type Stream struct {
	Data  []byte
	Info  vid.Info
	Index []vid.GOPEntry
}

// Video is one ingested video: the primary stream plus any renditions
// materialized at ingest, all sharing the primary's timeline (equal frame
// counts and GOP interval).
type Video struct {
	Name       string
	Primary    Stream
	Renditions []Stream

	// scores holds the video's proxy score tables, keyed by (stream,
	// proxy). Accessed through Store.Scores/PutScores under the store
	// mutex; may be nil when nothing has been scored.
	scores map[scoreKey]*ScoreTable
}

// Streams returns the primary followed by the renditions — the order
// ServePlan.Stream indexes.
func (v *Video) Streams() []Stream {
	out := make([]Stream, 0, 1+len(v.Renditions))
	out = append(out, v.Primary)
	return append(out, v.Renditions...)
}

// IngestOptions configures one Ingest call.
type IngestOptions struct {
	// RenditionShortEdges lists the low-resolution renditions to
	// materialize, by short-edge pixels (e.g. 64 for a thumbnail proxy).
	// Edges at or above the source's short edge are skipped — a rendition
	// never fabricates detail — as are duplicates.
	RenditionShortEdges []int
	// RenditionQuality is the encoder quality for renditions (0 = the
	// source stream's quality).
	RenditionQuality int
	// ProxyScores materializes blob-proxy score tables for every stream at
	// ingest (one extra sequential decode per stream), so the first
	// selection or aggregation query over the video skips its proxy pass.
	// Off by default: queries that need scores compute and persist them
	// lazily on first use.
	ProxyScores bool
}

// Store is an open media store. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu     sync.Mutex
	wal    *os.File
	videos map[string]*Video
}

const walName = "wal.log"

// Open opens (creating if needed) the store rooted at dir, recovering from
// any interrupted ingest: files of videos without a Commit record are
// removed, and every committed video is loaded with its sidecar verified.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	committed, err := readWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	if err := removeOrphans(dir, committed); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, videos: make(map[string]*Video)}
	for name := range committed {
		v, err := loadVideo(dir, name)
		if err != nil {
			return nil, fmt.Errorf("store: loading committed video %q: %w", name, err)
		}
		s.videos[name] = v
	}
	// Rewrite the journal compacted: one Commit per surviving video. This
	// both truncates torn tails and drops Begin noise from past crashes.
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, name := range sortedNames(s.videos) {
		if err := appendWAL(wal, opCommit, name); err != nil {
			wal.Close()
			return nil, err
		}
	}
	s.wal = wal
	return s, nil
}

// Close releases the journal handle. Resident video data stays valid.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Video returns an ingested video by name.
func (s *Store) Video(name string) (*Video, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.videos[name]
	return v, ok
}

// Names lists the ingested videos in lexical order.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedNames(s.videos)
}

// Len reports the number of ingested videos.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.videos)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Ingest validates and indexes an SVID stream, materializes any requested
// renditions, and commits the video to the store under the WAL protocol.
// The stream is written once; every later query seeks through the
// persisted GOP table instead of re-scanning it.
func (s *Store) Ingest(name string, data []byte, opts IngestOptions) (*Video, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	primary, err := IndexStream(data)
	if err != nil {
		return nil, fmt.Errorf("store: ingesting %q: %w", name, err)
	}
	v := &Video{Name: name, Primary: primary}
	if edges := renditionEdges(primary.Info, opts.RenditionShortEdges); len(edges) > 0 {
		v.Renditions, err = buildRenditions(primary, edges, opts.RenditionQuality)
		if err != nil {
			return nil, fmt.Errorf("store: rendering %q renditions: %w", name, err)
		}
	}
	if opts.ProxyScores {
		v.scores = make(map[scoreKey]*ScoreTable)
		for i, st := range v.Streams() {
			raw, _, err := BlobScores(st)
			if err != nil {
				return nil, fmt.Errorf("store: scoring %q stream %d: %w", name, i, err)
			}
			t, err := buildScoreTable(i, blazeit.BlobProxyName, raw, st)
			if err != nil {
				return nil, fmt.Errorf("store: scoring %q stream %d: %w", name, i, err)
			}
			v.scores[scoreKey{i, blazeit.BlobProxyName}] = t
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil, fmt.Errorf("store: closed")
	}
	if _, ok := s.videos[name]; ok {
		return nil, fmt.Errorf("store: %q already ingested", name)
	}
	if err := appendWAL(s.wal, opBegin, name); err != nil {
		return nil, err
	}
	files := map[string][]byte{
		name + ".svid": v.Primary.Data,
		name + ".idx":  encodeSidecar(v.Streams()),
	}
	for i, r := range v.Renditions {
		files[fmt.Sprintf("%s.r%d.svid", name, i)] = r.Data
	}
	if len(v.scores) > 0 {
		files[name+".scr"] = encodeScores(v.scores)
	}
	for fname, content := range files {
		if err := writeFileSync(filepath.Join(s.dir, fname), content); err != nil {
			return nil, err
		}
	}
	if err := appendWAL(s.wal, opCommit, name); err != nil {
		return nil, err
	}
	s.videos[name] = v
	return v, nil
}

// IndexStream probes an SVID stream's header and scans its GOP table: the
// one place bytes become a Stream, whether the stream is about to be
// persisted by Ingest or served once from a request's bytes. The index
// tiles [0, Info.Frames) contiguously, which is what SetGOPIndex and every
// GOP fan-out rely on.
func IndexStream(data []byte) (Stream, error) {
	info, err := vid.Probe(data)
	if err != nil {
		return Stream{}, err
	}
	index, err := vid.IndexGOPs(data)
	if err != nil {
		return Stream{}, err
	}
	return Stream{Data: data, Info: info, Index: index}, nil
}

// renditionEdges filters the requested short edges: in-range, deduplicated,
// strictly below the source's short edge, largest first (so rendition order
// is deterministic and roughly mirrors quality).
func renditionEdges(info vid.Info, edges []int) []int {
	short := info.W
	if info.H < short {
		short = info.H
	}
	seen := make(map[int]bool)
	var out []int
	for _, e := range edges {
		if e < 8 || e >= short || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// buildRenditions decodes the primary once and re-encodes it at each
// requested short edge, preserving the source GOP interval so every
// rendition shares the primary's timeline (the planner's variant contract).
func buildRenditions(src Stream, edges []int, quality int) ([]Stream, error) {
	frames, err := vid.DecodeAll(src.Data, vid.DecodeOptions{})
	if err != nil {
		return nil, err
	}
	info := src.Info
	if quality <= 0 {
		quality = info.Quality
	}
	out := make([]Stream, 0, len(edges))
	for _, edge := range edges {
		w, h := img.AspectPreservingSize(info.W, info.H, edge)
		scaled := make([]*img.Image, len(frames))
		for i, f := range frames {
			scaled[i] = f.ResizeBilinear(w, h)
		}
		enc, err := vid.Encode(scaled, vid.EncodeOptions{Quality: quality, GOP: info.GOP})
		if err != nil {
			return nil, err
		}
		r, err := IndexStream(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// validateName restricts names to a filesystem- and layout-safe alphabet.
// Dots are excluded so "<name>.r<i>.svid" rendition files can never collide
// with another video's primary.
func validateName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("store: invalid name %q", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("store: invalid name %q (allowed: letters, digits, '-', '_')", name)
		}
	}
	return nil
}

// loadVideo reads one committed video: sidecar first (checksummed), then
// the stream files it describes, cross-checking each stream's header
// against the persisted geometry.
func loadVideo(dir, name string) (*Video, error) {
	sidecar, err := os.ReadFile(filepath.Join(dir, name+".idx"))
	if err != nil {
		return nil, err
	}
	streams, err := decodeSidecar(sidecar)
	if err != nil {
		return nil, err
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("sidecar lists no streams")
	}
	for i := range streams {
		fname := name + ".svid"
		if i > 0 {
			fname = fmt.Sprintf("%s.r%d.svid", name, i-1)
		}
		data, err := os.ReadFile(filepath.Join(dir, fname))
		if err != nil {
			return nil, err
		}
		info, err := vid.Probe(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fname, err)
		}
		if info != streams[i].Info {
			return nil, fmt.Errorf("%s header %+v does not match sidecar %+v", fname, info, streams[i].Info)
		}
		streams[i].Data = data
	}
	v := &Video{Name: name, Primary: streams[0], Renditions: streams[1:]}
	loadScores(dir, v)
	return v, nil
}

// WAL record framing: op byte, u16 name length, name, CRC-32 of the
// preceding bytes. Torn tails (a crash mid-append) fail the length or
// checksum test and terminate the scan.
const (
	opBegin  = 'B'
	opCommit = 'C'
)

func appendWAL(f *os.File, op byte, name string) error {
	rec := make([]byte, 0, 3+len(name)+4)
	rec = append(rec, op)
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(name)))
	rec = append(rec, name...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	if _, err := f.Write(rec); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	return nil
}

// readWAL returns the set of committed names. A record that fails framing
// or checksum marks the torn tail of an interrupted append; everything
// before it is trusted, everything after discarded.
func readWAL(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading journal: %w", err)
	}
	committed := make(map[string]bool)
	pos := 0
	for pos+3 <= len(data) {
		nameLen := int(binary.BigEndian.Uint16(data[pos+1:]))
		end := pos + 3 + nameLen + 4
		if end > len(data) {
			break // torn tail
		}
		body := data[pos : pos+3+nameLen]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[pos+3+nameLen:]) {
			break // torn tail
		}
		op, name := body[0], string(body[3:])
		switch op {
		case opBegin:
			// Begin alone proves nothing; only Commit admits the video.
		case opCommit:
			committed[name] = true
		default:
			return nil, fmt.Errorf("store: unknown journal op %q", op)
		}
		pos = end
	}
	return committed, nil
}

// removeOrphans deletes store-layout files whose video has no Commit
// record: the half-written remains of an interrupted ingest.
func removeOrphans(dir string, committed map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == walName {
			continue
		}
		base, ok := videoBase(e.Name())
		if !ok || committed[base] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("store: removing orphan %s: %w", e.Name(), err)
		}
	}
	return nil
}

// videoBase maps a store-layout file name back to its video name:
// "<name>.svid", "<name>.idx", "<name>.scr", or "<name>.r<i>.svid". Files
// outside the layout are left alone.
func videoBase(fname string) (string, bool) {
	base, found := strings.CutSuffix(fname, ".svid")
	if !found {
		base, found = strings.CutSuffix(fname, ".idx")
		if !found {
			base, found = strings.CutSuffix(fname, ".scr")
			if !found {
				return "", false
			}
		}
		return base, validateName(base) == nil
	}
	// Strip a rendition suffix ".r<i>" if present.
	if i := strings.LastIndex(base, ".r"); i >= 0 {
		digits := base[i+2:]
		allDigits := len(digits) > 0
		for _, c := range digits {
			if c < '0' || c > '9' {
				allDigits = false
				break
			}
		}
		if allDigits {
			base = base[:i]
		}
	}
	return base, validateName(base) == nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	return f.Close()
}

func sortedNames(m map[string]*Video) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
