package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"squatphi/internal/core"
	"squatphi/internal/crawler"
	"squatphi/internal/geo"
	"squatphi/internal/render"
	"squatphi/internal/report"
	"squatphi/internal/squat"
	"squatphi/internal/webworld"
	"squatphi/internal/whois"
)

// writeShot saves one case-study screenshot under dir.
func writeShot(dir, domain string, shot *render.Raster) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.NewReplacer("/", "_", ".", "_").Replace(domain) + ".png"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return shot.WritePNG(f)
}

// ExpTable8 regenerates Table 8: flagged vs manually-confirmed squatting
// phishing pages, per profile and union.
func ExpTable8(e *Env) (*Result, error) {
	r := &Result{ID: "Table 8", Name: "Detected and confirmed squatting phishing pages"}
	det, err := e.Detection()
	if err != nil {
		return nil, err
	}
	squatTotal := len(e.P.ScanDNS())
	row := func(name string, flagged []core.Flagged) (int, int) {
		confirmed := 0
		brands := map[string]bool{}
		for _, f := range flagged {
			if f.Confirmed {
				confirmed++
				brands[f.Brand] = true
			}
		}
		return confirmed, len(brands)
	}
	webC, webB := row("Web", det.FlaggedWeb)
	mobC, mobB := row("Mobile", det.FlaggedMobile)
	union := det.ConfirmedUnion()
	unionBrands := map[string]bool{}
	for _, f := range append(det.FlaggedWeb, det.FlaggedMobile...) {
		if f.Confirmed {
			unionBrands[f.Brand] = true
		}
	}
	tb := report.NewTable("Detection in the wild", "Type", "Squatting Domains", "Classified as Phishing", "Manually Confirmed", "Related Brands")
	tb.AddRow("Web", squatTotal, len(det.FlaggedWeb), pct(webC, len(det.FlaggedWeb)), webB)
	tb.AddRow("Mobile", squatTotal, len(det.FlaggedMobile), pct(mobC, len(det.FlaggedMobile)), mobB)
	totalFlagged := len(det.FlaggedWeb) + len(det.FlaggedMobile)
	tb.AddRow("Union", squatTotal, totalFlagged, pct(len(union), totalFlagged), len(unionBrands))
	r.Tables = append(r.Tables, tb)
	if squatTotal > 0 {
		r.Note("phishing prevalence %.2f%% of squatting domains (paper: ~0.2%%)", float64(len(union))/float64(squatTotal)*100)
	}
	if totalFlagged > 0 {
		confirmRate := float64(webC+mobC) / float64(totalFlagged)
		r.Note("confirmation rate %.0f%% (paper: ~70%% — survey forms and brand plugins cause FPs)", confirmRate*100)
	}
	return r, nil
}

// confirmedByBrand tallies confirmed phishing pages per brand for one or
// both profiles.
func confirmedByBrand(flagged []core.Flagged) map[string]int {
	out := map[string]int{}
	for _, f := range flagged {
		if f.Confirmed {
			out[f.Brand]++
		}
	}
	return out
}

// ExpTable9 regenerates Table 9: per-brand predicted vs verified counts
// for the paper's 15 example brands.
func ExpTable9(e *Env) (*Result, error) {
	r := &Result{ID: "Table 9", Name: "Example brands: predicted vs verified phishing pages"}
	det, err := e.Detection()
	if err != nil {
		return nil, err
	}
	squatByBrand := map[string]int{}
	for _, c := range e.P.ScanDNS() {
		squatByBrand[c.Brand.Name]++
	}
	predWeb := map[string]int{}
	predMob := map[string]int{}
	for _, f := range det.FlaggedWeb {
		predWeb[f.Brand]++
	}
	for _, f := range det.FlaggedMobile {
		predMob[f.Brand]++
	}
	verWeb := confirmedByBrand(det.FlaggedWeb)
	verMob := confirmedByBrand(det.FlaggedMobile)

	paperBrands := []string{"google", "facebook", "apple", "bitcoin", "uber", "youtube", "paypal", "citi", "ebay", "microsoft", "twitter", "dropbox", "github", "adp", "santander"}
	tb := report.NewTable("Example brands", "Brand", "Squatting Domains", "Pred Web", "Pred Mobile", "Verified Web", "Verified Mobile")
	for _, b := range paperBrands {
		if predWeb[b]+predMob[b] == 0 && squatByBrand[b] == 0 {
			continue
		}
		tb.AddRow(b, squatByBrand[b], predWeb[b], predMob[b], verWeb[b], verMob[b])
	}
	r.Tables = append(r.Tables, tb)
	r.Note("paper Table 9: Google leads with 112 web / 97 mobile predictions")
	return r, nil
}

// ExpFigure11 regenerates Figure 11: CDF of verified phishing domains per
// brand.
func ExpFigure11(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 11", Name: "CDF of verified phishing domains per brand"}
	sites, err := e.ConfirmedSites()
	if err != nil {
		return nil, err
	}
	perBrand := map[string]int{}
	for _, s := range sites {
		perBrand[s.Brand.Name]++
	}
	var counts []int
	for _, c := range perBrand {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	s := report.NewSeries("Verified phishing domains per brand", "brand rank", "# domains")
	for i, c := range counts {
		if i >= 10 {
			break
		}
		s.Add(fmt.Sprintf("brand-%d", i+1), float64(c))
	}
	r.Series = append(r.Series, s)
	few := 0
	for _, c := range counts {
		if c < 10 {
			few++
		}
	}
	if len(counts) > 0 {
		r.Note("%.0f%% of brands have <10 phishing domains (paper: the vast majority)", float64(few)/float64(len(counts))*100)
	}
	return r, nil
}

// ExpFigure12 regenerates Figure 12: squatting-type distribution of the
// confirmed phishing domains, per profile.
func ExpFigure12(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 12", Name: "Squatting types of confirmed phishing domains"}
	det, err := e.Detection()
	if err != nil {
		return nil, err
	}
	count := func(flagged []core.Flagged) map[squat.Type]int {
		out := map[squat.Type]int{}
		for _, f := range flagged {
			if f.Confirmed {
				out[f.SquatType]++
			}
		}
		return out
	}
	web, mob := count(det.FlaggedWeb), count(det.FlaggedMobile)
	for _, prof := range []struct {
		name string
		m    map[squat.Type]int
	}{{"web", web}, {"mobile", mob}} {
		s := report.NewSeries("Confirmed phishing by squatting type ("+prof.name+")", "type", "# domains")
		for _, t := range squat.AllTypes {
			s.Add(t.String(), float64(prof.m[t]))
		}
		r.Series = append(r.Series, s)
	}
	comboDominates := web[squat.Combo] >= web[squat.Typo] && web[squat.Combo] >= web[squat.Bits]
	r.Note("combo squatting hosts the most phishing: %v (paper: combo largest, all five types present)", comboDominates)
	return r, nil
}

// ExpFigure13 regenerates Figure 13: the top brands targeted by confirmed
// squatting phishing.
func ExpFigure13(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 13", Name: "Top brands targeted by squatting phishing"}
	det, err := e.Detection()
	if err != nil {
		return nil, err
	}
	perBrand := map[string]int{}
	for _, f := range append(det.FlaggedWeb, det.FlaggedMobile...) {
		if f.Confirmed {
			perBrand[f.Brand]++
		}
	}
	type bc struct {
		b string
		c int
	}
	var list []bc
	for b, c := range perBrand {
		list = append(list, bc{b, c})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].b < list[j].b
	})
	s := report.NewSeries("Verified phishing pages per brand", "brand", "# pages")
	for i, e := range list {
		if i >= 15 {
			break
		}
		s.Add(e.b, float64(e.c))
	}
	r.Series = append(r.Series, s)
	if len(list) > 0 {
		r.Note("most-targeted brand: %s with %d pages (paper: google, 194 pages, far ahead)", list[0].b, list[0].c)
	}
	return r, nil
}

// ExpTable10 regenerates Table 10: example confirmed phishing domains per
// brand with their squatting types.
func ExpTable10(e *Env) (*Result, error) {
	r := &Result{ID: "Table 10", Name: "Example squatting phishing domains"}
	sites, err := e.ConfirmedSites()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Confirmed examples", "Brand", "Domain", "Squatting Type", "Scam")
	perBrand := map[string]int{}
	for _, s := range sites {
		if perBrand[s.Brand.Name] >= 2 {
			continue
		}
		perBrand[s.Brand.Name]++
		tb.AddRow(s.Brand.Name, s.Domain, s.SquatType.String(), s.Scam.String())
		if len(tb.Rows) >= 20 {
			break
		}
	}
	r.Tables = append(r.Tables, tb)
	r.Note("paper Table 10: goog1e.nl (homograph), facecook.mobi (bits), mobile-adp.com (combo), ...")
	return r, nil
}

// ExpFigure14 regenerates Figure 14: case studies — renders the confirmed
// pages and tallies the scam flavours behind them.
func ExpFigure14(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 14", Name: "Case studies: scam flavours of squatting phishing"}
	sites, err := e.ConfirmedSites()
	if err != nil {
		return nil, err
	}
	scams := map[webworld.Scam]int{}
	rendered := 0
	for _, s := range sites {
		scams[s.Scam]++
		mobile := s.Cloak == webworld.CloakMobileOnly
		page, ok := e.P.World.PageFor(s, 0, mobile)
		if !ok {
			continue
		}
		shot := render.Screenshot(page.HTML, render.Options{Assets: page.Assets})
		rendered++
		if e.ShotsDir != "" && rendered <= 12 {
			if err := writeShot(e.ShotsDir, s.Domain, shot); err != nil {
				r.Note("screenshot export failed for %s: %v", s.Domain, err)
			}
		}
	}
	sr := report.NewSeries("Scam flavours among confirmed phishing", "scam", "# domains")
	for s := webworld.ScamLogin; s <= webworld.ScamPayment; s++ {
		sr.Add(s.String(), float64(scams[s]))
	}
	r.Series = append(r.Series, sr)
	r.Note("%d case-study pages rendered; paper's cases: fake search (goofle.com.ua), freight scam (go-uberfreight.com), payroll scam (mobile-adp.com), tech support (live-microsoftsupport.com), payment (securemail-citizenslc.com)", rendered)
	return r, nil
}

// ExpFigure15 regenerates Figure 15: IP geolocation of confirmed phishing.
func ExpFigure15(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 15", Name: "Geolocation of squatting phishing hosts"}
	sites, err := e.ConfirmedSites()
	if err != nil {
		return nil, err
	}
	var ips [][4]byte
	for _, s := range sites {
		ips = append(ips, s.IP)
	}
	hist := geo.Histogram(ips)
	type cc struct {
		c string
		n int
	}
	var list []cc
	for c, n := range hist {
		list = append(list, cc{c, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].c < list[j].c
	})
	s := report.NewSeries("Phishing hosts by country", "country", "# hosts")
	for i, e := range list {
		if i >= 10 {
			break
		}
		s.Add(e.c, float64(e.n))
	}
	r.Series = append(r.Series, s)
	if len(list) > 0 {
		r.Note("top country %s (paper: US 494, then DE 106); %d countries total (paper: 53)", list[0].c, len(hist))
	}
	return r, nil
}

// ExpFigure16 regenerates Figure 16: registration years of confirmed
// phishing domains, fetched over the RFC 3912 whois protocol from the
// world's registry server.
func ExpFigure16(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 16", Name: "Registration time of squatting phishing domains"}
	sites, err := e.ConfirmedSites()
	if err != nil {
		return nil, err
	}
	srv, err := whois.NewServer(e.P.World)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// Lookups go through the deadline-bounded whois client reporting to
	// the pipeline registry; registries that fail after retries degrade
	// the artifact (core.degraded.whois) instead of silently shrinking it.
	client := &whois.Client{Metrics: e.P.Obs}
	failed := 0
	years := map[int]int{}
	registrars := map[string]int{}
	withRegistrar := 0
	for _, s := range sites {
		rec, err := client.Lookup(e.Ctx, srv.Addr(), s.Domain)
		if err != nil {
			if !errors.Is(err, whois.ErrNoMatch) {
				failed++
			}
			continue
		}
		years[rec.Created]++
		if rec.Registrar != "" {
			withRegistrar++
			registrars[rec.Registrar]++
		}
	}
	sr := report.NewSeries("Registrations per year", "year", "# domains")
	for y := 2005; y <= 2018; y++ {
		if years[y] > 0 {
			sr.Add(fmt.Sprintf("%d", y), float64(years[y]))
		}
	}
	r.Series = append(r.Series, sr)
	recent, total := 0, 0
	for y, n := range years {
		total += n
		if y >= 2014 {
			recent += n
		}
	}
	if total > 0 {
		r.Note("registered within recent 4 years: %.0f%% (paper: most)", float64(recent)/float64(total)*100)
	}
	topReg, topN := "", 0
	for reg, n := range registrars {
		if n > topN || n == topN && reg < topReg {
			topReg, topN = reg, n
		}
	}
	r.Note("registrar data for %d/%d domains (paper: 738/1175); top registrar %s (paper: godaddy.com)", withRegistrar, total, topReg)
	if failed > 0 {
		e.P.Degraded("whois", failed, len(sites))
		r.Note("degraded: %d/%d whois lookups failed after retries (partial artifact)", failed, len(sites))
	}
	return r, nil
}

// ExpFigure17 regenerates Figure 17: live phishing pages per snapshot.
func ExpFigure17(e *Env) (*Result, error) {
	r := &Result{ID: "Figure 17", Name: "Liveness of confirmed phishing over the month"}
	clf, err := e.Classifier()
	if err != nil {
		return nil, err
	}
	confirmed, err := e.ConfirmedDomains()
	if err != nil {
		return nil, err
	}
	web, mobile, err := e.P.MonitorLiveness(e.Ctx, clf, confirmed)
	if err != nil {
		return nil, err
	}
	for _, prof := range []struct {
		name   string
		series []int
	}{{"web", web}, {"mobile", mobile}} {
		s := report.NewSeries("Live phishing pages ("+prof.name+")", "snapshot", "# live")
		for i, c := range prof.series {
			s.Add(crawler.SnapshotDates[i], float64(c))
		}
		r.Series = append(r.Series, s)
	}
	if len(confirmed) > 0 && web[0] > 0 {
		frac := float64(web[len(web)-1]) / float64(web[0])
		r.Note("%.0f%% of web phishing still live after the month (paper: ~80%%)", frac*100)
	}
	return r, nil
}

// ExpTable11 regenerates Table 11: evasion adoption, squatting vs
// non-squatting phishing.
func ExpTable11(e *Env) (*Result, error) {
	r := &Result{ID: "Table 11", Name: "Evasion: squatting vs non-squatting phishing"}
	confirmed, err := e.ConfirmedDomains()
	if err != nil {
		return nil, err
	}
	sqStats, err := e.P.EvasionStatsFor(e.Ctx, confirmed, 0)
	if err != nil {
		return nil, err
	}
	var nsDomains []string
	for _, d := range e.P.World.NonSquattingPhish {
		if s, ok := e.P.World.Site(d); ok && s.IsPhishingAt(0) {
			nsDomains = append(nsDomains, d)
		}
	}
	nsStats, err := e.P.EvasionStatsFor(e.Ctx, nsDomains, 0)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Evasion comparison", "Type", "Layout Obfuscation (mean±std)", "String Obfuscation", "Code Obfuscation")
	sqMean, sqStd := sqStats.LayoutMeanStd()
	nsMean, nsStd := nsStats.LayoutMeanStd()
	tb.AddRow("Squatting", fmt.Sprintf("%.1f ± %.1f", sqMean, sqStd), fmt.Sprintf("%.1f%%", sqStats.StringObfRate()*100), fmt.Sprintf("%.1f%%", sqStats.CodeObfRate()*100))
	tb.AddRow("Non-Squatting", fmt.Sprintf("%.1f ± %.1f", nsMean, nsStd), fmt.Sprintf("%.1f%%", nsStats.StringObfRate()*100), fmt.Sprintf("%.1f%%", nsStats.CodeObfRate()*100))
	r.Tables = append(r.Tables, tb)
	r.Note("squatting string-obfuscates more: %v (paper: 68%% vs 36%%); layout distance higher: %v (paper: 28 vs 21)",
		sqStats.StringObfRate() > nsStats.StringObfRate(), sqMean > nsMean)
	return r, nil
}

// ExpTable12 regenerates Table 12: blacklist coverage of the confirmed
// squatting phishing domains one month in.
func ExpTable12(e *Env) (*Result, error) {
	r := &Result{ID: "Table 12", Name: "Blacklist detection of squatting phishing"}
	confirmed, err := e.ConfirmedDomains()
	if err != nil {
		return nil, err
	}
	sum := e.P.BlacklistSummary(confirmed, 30)
	tb := report.NewTable("Blacklist coverage at day 30", "Blacklist", "Domains Detected", "Percent")
	tb.AddRow("PhishTank feed", sum.ByFeed, pctf(sum.ByFeed, sum.Total))
	tb.AddRow("VirusTotal (70 engines)", sum.ByVT, pctf(sum.ByVT, sum.Total))
	tb.AddRow("eCrimeX", sum.ByECrimeX, pctf(sum.ByECrimeX, sum.Total))
	tb.AddRow("Not Detected", sum.Undetect, pctf(sum.Undetect, sum.Total))
	r.Tables = append(r.Tables, tb)
	if sum.Total > 0 {
		r.Note("undetected after a month: %.1f%% (paper: 91.5%%)", float64(sum.Undetect)/float64(sum.Total)*100)
	}
	return r, nil
}

func pctf(n, total int) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", float64(n)/float64(total)*100)
}

// ExpTable13 regenerates Table 13: per-domain liveness timelines across
// the four snapshots for example confirmed domains.
func ExpTable13(e *Env) (*Result, error) {
	r := &Result{ID: "Table 13", Name: "Liveness of example phishing pages per snapshot"}
	sites, err := e.ConfirmedSites()
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Per-domain liveness", "Domain", crawler.SnapshotDates[0], crawler.SnapshotDates[1], crawler.SnapshotDates[2], crawler.SnapshotDates[3])
	comeback := 0
	for i, s := range sites {
		if i >= 8 {
			break
		}
		cells := make([]any, 0, 5)
		cells = append(cells, s.Domain)
		wasDown := false
		cameBack := false
		for snap := 0; snap < webworld.Snapshots; snap++ {
			if s.IsPhishingAt(snap) {
				cells = append(cells, "Live")
				if wasDown {
					cameBack = true
				}
			} else {
				cells = append(cells, "-")
				wasDown = true
			}
		}
		if cameBack {
			comeback++
		}
		tb.AddRow(cells...)
	}
	r.Tables = append(r.Tables, tb)
	r.Note("%d example domains resurfaced after a takedown (paper: tacebook.ga came back in snapshot 4)", comeback)
	return r, nil
}
