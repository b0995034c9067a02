package ocr

import (
	"sort"
	"strings"

	"squatphi/internal/render"
)

// The slow reference: the bool-per-pixel engine the packed one replaced,
// kept verbatim except for one rule — templates are tried in ascending
// rune order, so Dice ties go to the lowest rune (the original ranged over
// the glyph map and broke ties by Go's randomised map order). Every pass
// reads pixels through the bounds-checked at(), which is what defines
// "ink-free outside the raster" for the packed code to reproduce.

// recognizeRef is Engine.Recognize over the reference passes.
func recognizeRef(ra *render.Raster) string {
	const minScore = 0.72
	work := refBinarize(ra)
	refDenoise(work)
	refRemoveBorders(work)

	var out []string
	for _, bd := range refFindBands(work) {
		line := refReadBand(work, bd, minScore)
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

type refBitmap struct {
	w, h int
	pix  []bool // true = ink
}

func (b *refBitmap) at(x, y int) bool {
	if x < 0 || y < 0 || x >= b.w || y >= b.h {
		return false
	}
	return b.pix[y*b.w+x]
}

func refBinarize(ra *render.Raster) *refBitmap {
	b := &refBitmap{w: ra.W, h: ra.H, pix: make([]bool, ra.W*ra.H)}
	for i, v := range ra.Pix {
		b.pix[i] = v < 128
	}
	return b
}

func refDenoise(b *refBitmap) {
	counts := make([]uint8, len(b.pix))
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			n := uint8(0)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if (dx != 0 || dy != 0) && b.at(x+dx, y+dy) {
						n++
					}
				}
			}
			counts[y*b.w+x] = n
		}
	}
	out := make([]bool, len(b.pix))
	copy(out, b.pix)
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			i := y*b.w + x
			switch {
			case b.pix[i] && counts[i] == 0:
				out[i] = false // lone speck
			case b.pix[i] && counts[i] == 1:
				// Remove only if the single neighbour is itself weakly
				// connected: isolated noise pairs vanish, while stroke
				// endpoints (whose neighbour sits inside a glyph stroke)
				// survive.
				if refNeighborMaxCount(b, counts, x, y) <= 1 {
					out[i] = false
				}
			case !b.pix[i] && counts[i] >= 7:
				out[i] = true // pinhole
			}
		}
	}
	b.pix = out
}

// refNeighborMaxCount returns the highest neighbour-count among the dark
// neighbours of (x, y).
func refNeighborMaxCount(b *refBitmap, counts []uint8, x, y int) uint8 {
	max := uint8(0)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			nx, ny := x+dx, y+dy
			if nx < 0 || ny < 0 || nx >= b.w || ny >= b.h || !b.at(nx, ny) {
				continue
			}
			if c := counts[ny*b.w+nx]; c > max {
				max = c
			}
		}
	}
	return max
}

func refRemoveBorders(b *refBitmap) {
	// Both passes measure runs on the original image.
	erase := make([]bool, len(b.pix))

	const maxGlyphRun = 12
	for y := 0; y < b.h; y++ {
		runStart := -1
		for x := 0; x <= b.w; x++ {
			if x < b.w && b.at(x, y) {
				if runStart < 0 {
					runStart = x
				}
				continue
			}
			if runStart >= 0 && x-runStart > maxGlyphRun {
				for xx := runStart; xx < x; xx++ {
					erase[y*b.w+xx] = true
				}
			}
			runStart = -1
		}
	}
	const maxGlyphCol = 14
	for x := 0; x < b.w; x++ {
		runStart := -1
		for y := 0; y <= b.h; y++ {
			if y < b.h && b.at(x, y) {
				if runStart < 0 {
					runStart = y
				}
				continue
			}
			if runStart >= 0 && y-runStart > maxGlyphCol {
				for yy := runStart; yy < y; yy++ {
					erase[yy*b.w+x] = true
				}
			}
			runStart = -1
		}
	}
	for i, e := range erase {
		if e {
			b.pix[i] = false
		}
	}
}

func refFindBands(b *refBitmap) []band {
	rowInk := make([]int, b.h)
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			if b.at(x, y) {
				rowInk[y]++
			}
		}
	}
	var bands []band
	y := 0
	for y < b.h {
		if rowInk[y] == 0 {
			y++
			continue
		}
		top := y
		for y < b.h && rowInk[y] > 0 {
			y++
		}
		h := y - top
		switch {
		case h >= 4 && h <= render.GlyphH+2:
			bands = append(bands, band{top: top, height: h, scale: 1})
		case h >= render.GlyphH+3 && h <= 2*render.GlyphH+4:
			bands = append(bands, band{top: top, height: h, scale: 2})
		case h > 2*render.GlyphH+4:
			for t := top; t < y; t += render.LineH {
				bands = append(bands, band{top: t, height: render.GlyphH, scale: 1})
			}
		default:
			// height 1..3: stray ink; skip
		}
	}
	return bands
}

func refReadBand(b *refBitmap, bd band, minScore float64) string {
	left, right := -1, -1
	for x := 0; x < b.w; x++ {
		for y := bd.top; y < bd.top+bd.height; y++ {
			if b.at(x, y) {
				if left < 0 {
					left = x
				}
				right = x
				break
			}
		}
	}
	if left < 0 {
		return ""
	}

	bestLine := ""
	bestTotal := -1.0
	for off := 0; off <= 2; off++ {
		line, total := refReadLineAt(b, bd, left-off*bd.scale, right, minScore)
		if total > bestTotal {
			bestTotal, bestLine = total, line
		}
	}
	return strings.TrimSpace(bestLine)
}

func refReadLineAt(b *refBitmap, bd band, origin, right int, minScore float64) (string, float64) {
	advance := render.AdvanceX * bd.scale
	var sb strings.Builder
	total := 0.0
	pendingSpace := false
	for cellX := origin; cellX <= right; cellX += advance {
		ch, score := refMatchCell(b, cellX, bd.top, bd.scale)
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

// refRunes is the template order: every glyph but the space, ascending.
var refRunes = func() []rune {
	var rs []rune
	for ch := range render.Glyphs() {
		if ch != ' ' {
			rs = append(rs, ch)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}()

func refMatchCell(b *refBitmap, x, y, scale int) (rune, float64) {
	bestCh := rune(0)
	bestScore := -1.0
	anyInk := false
	for dy := -1; dy <= 1; dy++ {
		cell, ink := refSampleCell(b, x, y+dy, scale)
		if ink == 0 {
			continue
		}
		anyInk = true
		for _, ch := range refRunes {
			g := render.Glyphs()[ch]
			tp, glyphInk := 0, 0
			for gy := 0; gy < render.GlyphH; gy++ {
				for gx := 0; gx < render.GlyphW; gx++ {
					if g[gy][gx] {
						glyphInk++
						if cell[gy][gx] {
							tp++
						}
					}
				}
			}
			score := 2 * float64(tp) / float64(glyphInk+ink)
			if score > bestScore {
				bestScore = score
				bestCh = ch
			}
		}
	}
	if !anyInk {
		return 0, 0
	}
	return bestCh, bestScore
}

func refSampleCell(b *refBitmap, x, y, scale int) ([render.GlyphH][render.GlyphW]bool, int) {
	var cell [render.GlyphH][render.GlyphW]bool
	ink := 0
	for gy := 0; gy < render.GlyphH; gy++ {
		for gx := 0; gx < render.GlyphW; gx++ {
			dark := 0
			for sy := 0; sy < scale; sy++ {
				for sx := 0; sx < scale; sx++ {
					if b.at(x+gx*scale+sx, y+gy*scale+sy) {
						dark++
					}
				}
			}
			if dark*2 > scale*scale {
				cell[gy][gx] = true
				ink++
			}
		}
	}
	return cell, ink
}
