// Package ocr implements the optical character recognition substrate: it
// recovers text from rendered page rasters by template-matching the built-in
// bitmap font, after denoising and removing box borders.
//
// The paper uses Tesseract to extract text from page screenshots because
// evasive phishing pages remove brand keywords from their HTML and display
// them via images or obfuscated scripts (paper §5.1). The OCR features are
// the classifier's key novelty. This engine reproduces the property that
// matters: it reads pixels, not markup, so whatever the page *shows* is
// recovered regardless of how the HTML was obfuscated. A configurable
// pixel-noise model upstream (render.Options.NoiseLevel) gives it a
// realistic non-zero error rate, which the spell-checker then corrects —
// matching the paper's Tesseract + spell-check pipeline.
//
// The engine is bit-parallel: the page is binarized into rows of uint64
// words (64 pixels each), every whole-page pass is a sweep of word
// operations, and a glyph cell is one 35-bit word matched against each
// template with a single AND and popcount. ocr_ref_test.go keeps the
// pixel-at-a-time engine this replaced as the parity reference.
package ocr

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"strings"

	"squatphi/internal/render"
)

// Engine recognises text in rasters. The zero value is ready to use, and
// one Engine may be used from many goroutines at once.
type Engine struct {
	// MinScore is the minimum template agreement (fraction of the 35 glyph
	// cells) to accept a character. Default 0.72.
	MinScore float64
}

// Recognize extracts the text of a raster, top to bottom. Lines are
// separated by newlines; unrecognisable cells are dropped. The result is a
// pure function of the pixels: templates are tried in ascending rune order
// and only a strictly better score replaces the current best, so when two
// glyphs match a cell equally well the lower rune wins.
func (e *Engine) Recognize(ra *render.Raster) string {
	minScore := e.MinScore
	if minScore == 0 {
		minScore = 0.72
	}

	work := binarize(ra)
	denoise(work)
	removeBorders(work)

	var out []string
	for _, band := range findBands(work) {
		line := readBand(work, band, minScore)
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// RecognizeWords returns the recognised text split into lower-cased words.
func (e *Engine) RecognizeWords(ra *render.Raster) []string {
	return strings.Fields(strings.ToLower(e.Recognize(ra)))
}

// bitmap is a binarized work image, one bit per pixel (1 = ink). A row is
// stride words; pixel x is bit x&63 of word x>>6, so shifting a word left
// moves ink towards higher x. The bits past column w in a row's last word
// stay zero: a read that runs off the right edge then sees background,
// which is what reads off the other three edges return explicitly.
type bitmap struct {
	w, h   int
	stride int
	bits   []uint64
}

func newBitmap(w, h int) *bitmap {
	stride := (w + 63) / 64
	return &bitmap{w: w, h: h, stride: stride, bits: make([]uint64, stride*h)}
}

// row returns the words of row y, which must be inside the raster.
func (b *bitmap) row(y int) []uint64 {
	return b.bits[y*b.stride : (y+1)*b.stride]
}

// rowOr returns row y, or blank (stride zero words) outside the raster.
func (b *bitmap) rowOr(y int, blank []uint64) []uint64 {
	if y < 0 || y >= b.h {
		return blank
	}
	return b.row(y)
}

// span returns the 64 pixels of row y starting at column x, pixel x in
// bit 0. x and y may lie outside the raster; pixels there read as
// background.
func (b *bitmap) span(x, y int) uint64 {
	if y < 0 || y >= b.h || x >= b.w || x <= -64 {
		return 0
	}
	row := b.row(y)
	if x < 0 {
		return row[0] << uint(-x)
	}
	j, s := x>>6, uint(x&63)
	v := row[j] >> s
	if s != 0 && j+1 < len(row) {
		v |= row[j+1] << (64 - s)
	}
	return v
}

// westOf returns word j of row with every pixel replaced by its left-hand
// neighbour; eastOf by its right-hand neighbour. Off-row neighbours are
// background.
func westOf(row []uint64, j int) uint64 {
	v := row[j] << 1
	if j > 0 {
		v |= row[j-1] >> 63
	}
	return v
}

func eastOf(row []uint64, j int) uint64 {
	v := row[j] >> 1
	if j+1 < len(row) {
		v |= row[j+1] << 63
	}
	return v
}

// around returns word j of row dilated by one pixel to each side.
func around(row []uint64, j int) uint64 {
	return westOf(row, j) | row[j] | eastOf(row, j)
}

// binarize thresholds the raster at mid-grey, eight pixels per step: ink
// is v < 128, a clear top bit, and the multiply gathers the eight inverted
// top bits of a little-endian load into one byte (byte i's bit lands on
// bit 56+i; no two partial products share a bit, so nothing carries).
func binarize(ra *render.Raster) *bitmap {
	b := newBitmap(ra.W, ra.H)
	for y := 0; y < b.h; y++ {
		src := ra.Pix[y*b.w : (y+1)*b.w]
		dst := b.row(y)
		x := 0
		for ; x+8 <= len(src); x += 8 {
			tops := ^binary.LittleEndian.Uint64(src[x:]) & 0x8080808080808080
			dst[x>>6] |= (tops >> 7) * 0x0102040810204080 >> 56 << uint(x&63)
		}
		for ; x < len(src); x++ {
			if src[x] < 128 {
				dst[x>>6] |= 1 << uint(x&63)
			}
		}
	}
	return b
}

// fullAdd adds three bit planes, lane by lane, into a sum and a carry plane.
func fullAdd(a, b, c uint64) (sum, carry uint64) {
	x := a ^ b
	return x ^ c, a&b | x&c
}

// denoise removes weakly-connected ink pixels and fills isolated holes — a
// cheap approximation of a median filter, enough to undo salt-and-pepper
// noise. Ink with at most one dark neighbour is treated as noise: glyph
// strokes are at least two pixels thick in their run direction, so at most
// a stroke endpoint is shaved, which the Dice matcher tolerates; noise
// pairs (common at a few percent noise, and destructive to line
// segmentation) are removed entirely.
//
// The 8-neighbour count of all 64 pixels of a word is kept bit-sliced in
// four planes n0..n3 (count = n0 + 2·n1 + 4·n2 + 8·n3), summed by
// carry-save adders over the west/centre/east copies of the rows above, at
// and below. The rules on the planes:
//
//	lone speck  ink, count = 0                          → cleared
//	weak pair   ink, count = 1, the neighbour's own
//	            count is 1 too                          → cleared
//	pinhole     no ink, count ≥ 7                       → filled
//
// An ink pixel with count = 1 has exactly one dark neighbour, so "the
// neighbour is strongly connected" is "the pixel touches strong", where
// strong = ink with count ≥ 2: the pixel survives iff it lies in the
// 8-dilation of strong. Strong ink always survives.
func denoise(b *bitmap) {
	n := b.stride
	if n == 0 {
		return
	}
	blank := make([]uint64, n)
	tail := ^uint64(0) >> uint(n*64-b.w) // valid bits of a row's last word

	// Sweep 1 splits every word into strong (survives outright) and maybe
	// (count-1 ink and pinholes, told apart by the ink bit in sweep 2).
	strong, maybe := newBitmap(b.w, b.h), newBitmap(b.w, b.h)
	for y := 0; y < b.h; y++ {
		up, mid, down := b.rowOr(y-1, blank), b.row(y), b.rowOr(y+1, blank)
		strongRow, maybeRow := strong.row(y), maybe.row(y)
		for j := 0; j < n; j++ {
			upSum, upCarry := fullAdd(westOf(up, j), up[j], eastOf(up, j))
			downSum, downCarry := fullAdd(westOf(down, j), down[j], eastOf(down, j))
			w, e := westOf(mid, j), eastOf(mid, j)
			midSum, midCarry := w^e, w&e

			// The ones column; the twos column (the three row carries plus
			// the carry out of the ones); the two carries out of that.
			n0, carry := fullAdd(upSum, midSum, downSum)
			twos, carry4 := fullAdd(upCarry, midCarry, downCarry)
			n1, carry4b := twos^carry, twos&carry
			n2, n3 := carry4^carry4b, carry4&carry4b

			ink := mid[j]
			atLeast2 := n1 | n2 | n3
			strongRow[j] = ink & atLeast2
			pinhole := ^ink & (n3 | n2&n1&n0)
			if j == n-1 {
				pinhole &= tail
			}
			maybeRow[j] = ink&n0&^atLeast2 | pinhole
		}
	}

	// Sweep 2 writes the result over the source image, which it reads only
	// at the word it writes; the dilation reads strong, which is complete.
	for y := 0; y < b.h; y++ {
		mid, strongRow, maybeRow := b.row(y), strong.row(y), maybe.row(y)
		up, down := strong.rowOr(y-1, blank), strong.rowOr(y+1, blank)
		for j := 0; j < n; j++ {
			m := maybeRow[j]
			if m != 0 {
				nearStrong := around(up, j) | around(strongRow, j) | around(down, j)
				m &= ^mid[j] | nearStrong
			}
			mid[j] = strongRow[j] | m
		}
	}
}

// removeBorders erases long straight ink runs (input-box outlines, button
// borders) that would otherwise merge text bands. Glyph strokes are at most
// 10px long (5px glyphs at 2x scale), so the thresholds are safe.
//
// Both passes measure runs on the original image: erasing horizontal
// borders first would shorten the vertical border runs below threshold
// (and vice versa), leaving box corners behind. A run longer than k is a
// union of windows of k+1 inked pixels; the AND of k+1 shifted copies
// marks where such windows start, and the marks are smeared back over
// them into the erase plane.
func removeBorders(b *bitmap) {
	n := b.stride
	erase := newBitmap(b.w, b.h)

	const maxGlyphRun = 12
	for y := 0; y < b.h; y++ {
		row, eraseRow := b.row(y), erase.row(y)
		for j, w := range row {
			var next uint64
			if j+1 < n {
				next = row[j+1]
			}
			starts := w
			for k := uint(1); k <= maxGlyphRun && starts != 0; k++ {
				starts &= w>>k | next<<(64-k)
			}
			if starts == 0 {
				continue
			}
			for k := uint(0); k <= maxGlyphRun; k++ {
				eraseRow[j] |= starts << k
				if over := starts >> (64 - k); over != 0 {
					eraseRow[j+1] |= over
				}
			}
		}
	}
	// Tallest glyph stroke is GlyphH*2 = 14 at 2x scale.
	const maxGlyphCol = 14
	for y := 0; y+maxGlyphCol < b.h; y++ {
		for j := 0; j < n; j++ {
			starts := b.bits[y*n+j]
			for k := 1; k <= maxGlyphCol && starts != 0; k++ {
				starts &= b.bits[(y+k)*n+j]
			}
			if starts == 0 {
				continue
			}
			for k := 0; k <= maxGlyphCol; k++ {
				erase.bits[(y+k)*n+j] |= starts
			}
		}
	}
	for i, e := range erase.bits {
		b.bits[i] &^= e
	}
}

// band is a horizontal strip containing one text line.
type band struct {
	top, height int
	scale       int
}

// findBands locates text lines by the row ink profile: maximal runs of
// inked rows whose height matches the font at scale 1 or 2.
func findBands(b *bitmap) []band {
	inked := func(y int) bool {
		var acc uint64
		for _, w := range b.row(y) {
			acc |= w
		}
		return acc != 0
	}
	var bands []band
	y := 0
	for y < b.h {
		if !inked(y) {
			y++
			continue
		}
		top := y
		for y < b.h && inked(y) {
			y++
		}
		h := y - top
		switch {
		case h >= 4 && h <= render.GlyphH+2:
			bands = append(bands, band{top: top, height: h, scale: 1})
		case h >= render.GlyphH+3 && h <= 2*render.GlyphH+4:
			bands = append(bands, band{top: top, height: h, scale: 2})
		case h > 2*render.GlyphH+4:
			// Merged region (noise bridged two lines): split greedily at
			// the expected line pitch for scale 1.
			for t := top; t < y; t += render.LineH {
				bands = append(bands, band{top: t, height: render.GlyphH, scale: 1})
			}
		default:
			// height 1..3: stray ink; skip
		}
	}
	return bands
}

// readBand recognises one text line. Glyphs sit on a fixed-pitch grid, but
// the grid origin is the block's x coordinate, not the first ink column
// (glyphs like 'I' or '1' have blank leading columns). The reader therefore
// tries the three possible anchor offsets and keeps the alignment whose
// total match score over the line is highest.
func readBand(b *bitmap, bd band, minScore float64) string {
	// The band's ink extent: OR its rows into one, read off the ends.
	left, right := -1, -1
	for j := 0; j < b.stride; j++ {
		var col uint64
		for y := bd.top; y < min(bd.top+bd.height, b.h); y++ {
			col |= b.bits[y*b.stride+j]
		}
		if col == 0 {
			continue
		}
		if left < 0 {
			left = j*64 + bits.TrailingZeros64(col)
		}
		right = j*64 + 63 - bits.LeadingZeros64(col)
	}
	if left < 0 {
		return ""
	}

	bestLine := ""
	bestTotal := -1.0
	for off := 0; off <= 2; off++ {
		line, total := readLineAt(b, bd, left-off*bd.scale, right, minScore)
		if total > bestTotal {
			bestTotal, bestLine = total, line
		}
	}
	return strings.TrimSpace(bestLine)
}

// readLineAt reads one line with the grid anchored at origin, returning the
// text and the summed match score used for anchor selection.
func readLineAt(b *bitmap, bd band, origin, right int, minScore float64) (string, float64) {
	advance := render.AdvanceX * bd.scale
	var sb strings.Builder
	total := 0.0
	pendingSpace := false
	for cellX := origin; cellX <= right; cellX += advance {
		ch, score := matchCell(b, cellX, bd.top, bd.scale)
		switch {
		case ch == 0:
			pendingSpace = sb.Len() > 0
		case score >= minScore:
			if pendingSpace {
				sb.WriteByte(' ')
				pendingSpace = false
			}
			sb.WriteRune(ch)
			total += score
		default:
			total -= 0.5 // unknown cell: penalise this anchoring
			pendingSpace = false
		}
	}
	return sb.String(), total
}

// template is one compiled glyph: its 35 cells as a word (cell (gx, gy) of
// the 5x7 grid is bit gy*GlyphW+gx) and how many of them are ink.
type template struct {
	ch   rune
	mask uint64
	ink  int
}

// templates is every glyph but the space, in ascending rune order — the
// order matchCell tries them in, and so the order that breaks ties.
var templates = compileTemplates()

func compileTemplates() []template {
	var ts []template
	for ch, g := range render.Glyphs() {
		if ch == ' ' {
			continue
		}
		t := template{ch: ch}
		for gy := 0; gy < render.GlyphH; gy++ {
			for gx := 0; gx < render.GlyphW; gx++ {
				if g[gy][gx] {
					t.mask |= 1 << uint(gy*render.GlyphW+gx)
				}
			}
		}
		t.ink = bits.OnesCount64(t.mask)
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ch < ts[j].ch })
	return ts
}

// matchCell matches the glyph cell whose top-left is (x, y) against the
// font templates using the Dice overlap of ink pixels, searching a small
// vertical alignment window. A cell with no ink returns (0, 0): a space.
func matchCell(b *bitmap, x, y, scale int) (rune, float64) {
	bestCh := rune(0)
	bestScore := -1.0
	for dy := -1; dy <= 1; dy++ {
		cell := sampleCell(b, x, y+dy, scale)
		if cell == 0 {
			continue
		}
		ink := bits.OnesCount64(cell)
		for i := range templates {
			t := &templates[i]
			// Dice coefficient over ink pixels: robust to the large
			// background majority that inflates plain pixel agreement.
			tp := bits.OnesCount64(cell & t.mask)
			score := 2 * float64(tp) / float64(t.ink+ink)
			if score > bestScore {
				bestScore = score
				bestCh = t.ch
			}
		}
	}
	if bestScore < 0 {
		return 0, 0 // no ink at any alignment
	}
	return bestCh, bestScore
}

// sampleCell downsamples the glyph-sized region whose top-left is (x, y) to
// a 5x7 cell word. At scale 1 a cell is a pixel; at scale 2 (the only
// other scale findBands reports) it is the majority of a 2x2 block, at
// least three of the four pixels dark.
func sampleCell(b *bitmap, x, y, scale int) uint64 {
	var cell uint64
	for gy := 0; gy < render.GlyphH; gy++ {
		var row uint64
		if scale == 1 {
			row = b.span(x, y+gy)
		} else {
			r0, r1 := b.span(x, y+2*gy), b.span(x, y+2*gy+1)
			// Per pixel pair, in the even bits: both dark in one row and
			// at least one dark in the other.
			pairs := r0&(r0>>1)&(r1|r1>>1) | r1&(r1>>1)&(r0|r0>>1)
			// Squeeze the five even bits 0,2,..,8 down to bits 0..4.
			pairs &= 0x155
			pairs = (pairs | pairs>>1) & 0x333
			pairs = (pairs | pairs>>2) & 0x0f0f
			row = (pairs | pairs>>4) & 0x00ff
		}
		cell |= (row & (1<<render.GlyphW - 1)) << uint(gy*render.GlyphW)
	}
	return cell
}
