package netgen

import (
	"fmt"
	"strings"

	"lightyear/internal/config"
	"lightyear/internal/topology"
)

// This file emits the generated networks in the configuration language of
// internal/config. The emitted text is the one definition of each network:
// cmd/lygen writes it out, and Fig1, FullMesh and WAN parse it, so a
// network built in-process is the network cmd/lightyear reads from disk.

// mustParse parses a generator's configuration text. A parse error means
// the generator itself is broken, so it panics.
func mustParse(src string) *topology.Network {
	n, err := config.Parse(src)
	if err != nil {
		panic("netgen: generated configuration does not parse: " + err.Error())
	}
	return n
}

// Fig1DSL renders the Figure-1 example network as configuration text.
func Fig1DSL(o Fig1Options) string {
	var b strings.Builder
	b.WriteString("# Figure 1 example network (generated)\n")
	for _, r := range []string{"R1", "R2", "R3"} {
		fmt.Fprintf(&b, "node %s { as 65000 role edge }\n", r)
	}
	b.WriteString("external ISP1 { as 174 }\n")
	b.WriteString("external ISP2 { as 3356 }\n")
	b.WriteString("external Customer { as 64512 }\n\n")
	for _, p := range [][2]string{{"ISP1", "R1"}, {"ISP2", "R2"}, {"Customer", "R3"}, {"R1", "R2"}, {"R1", "R3"}, {"R2", "R3"}} {
		fmt.Fprintf(&b, "peering %s %s\n", p[0], p[1])
	}
	b.WriteString("\nprefix-list cust { 10.42.0.0/16 ge 16 le 24 }\n\n")

	b.WriteString("route-map r1-import-isp1 {\n  term 10 deny { match prefix-list cust }\n  term 20 permit {")
	if !o.OmitTransitTag {
		b.WriteString(" set community add 100:1")
	}
	b.WriteString(" }\n}\n")

	b.WriteString("route-map r2-import-isp2 {\n  term 10 deny { match prefix-list cust }\n  term 20 permit { }\n}\n")

	b.WriteString("route-map r2-export-isp2 {\n")
	if !o.SkipExportFilter {
		b.WriteString("  term 10 deny { match community 100:1 }\n")
	}
	b.WriteString("  term 20 permit { }\n}\n")

	b.WriteString("route-map r3-import-customer {\n  term 10 permit {\n    match prefix-list cust\n")
	if !o.ForgetStripAtR3 {
		b.WriteString("    set community none\n")
	}
	b.WriteString("  }\n}\n")

	if o.StripAtR2 {
		b.WriteString("route-map r2-import-r1-buggy {\n  term 10 permit { set community none }\n}\n")
	}

	b.WriteString("\nimport ISP1 -> R1 map r1-import-isp1\n")
	b.WriteString("import ISP2 -> R2 map r2-import-isp2\n")
	b.WriteString("export R2 -> ISP2 map r2-export-isp2\n")
	b.WriteString("import Customer -> R3 map r3-import-customer\n")
	if o.StripAtR2 {
		b.WriteString("import R1 -> R2 map r2-import-r1-buggy\n")
	}
	b.WriteString("\noriginate R1 -> R2 route 10.50.0.0/16 lp 100\n")
	b.WriteString("originate R1 -> R3 route 10.50.0.0/16 lp 100\n")
	b.WriteString("originate R1 -> ISP1 route 10.50.0.0/16 lp 100\n")
	return b.String()
}

// FullMeshDSL renders the §6.2 full-mesh scaling network of size n.
func FullMeshDSL(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# full mesh, n=%d (generated)\n", n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "node R%d { as 65000 role mesh }\n", i)
		fmt.Fprintf(&b, "external X%d { as %d }\n", i, 1000+i)
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "peering R%d X%d\n", i, i)
		for j := i + 1; j <= n; j++ {
			fmt.Fprintf(&b, "peering R%d R%d\n", i, j)
		}
	}
	b.WriteString("\nprefix-list bogons {\n")
	b.WriteString("  0.0.0.0/8 ge 8 le 32\n  127.0.0.0/8 ge 8 le 32\n  169.254.0.0/16 ge 16 le 32\n  192.0.2.0/24 ge 24 le 32\n  224.0.0.0/4 ge 4 le 32\n}\n\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "route-map r%d-import-x%d {\n  term 10 deny { match prefix-list bogons }\n  term 20 permit {", i, i)
		if i == 1 {
			b.WriteString(" set community add 100:1")
		}
		b.WriteString(" }\n}\n")
		fmt.Fprintf(&b, "import X%d -> R%d map r%d-import-x%d\n", i, i, i, i)
	}
	b.WriteString("route-map r2-export-x2 {\n  term 10 deny { match community 100:1 }\n  term 20 permit { }\n}\n")
	b.WriteString("export R2 -> X2 map r2-export-x2\n")
	return b.String()
}

// WANDSL renders the §6.1 synthetic WAN.
func WANDSL(p WANParams, bugs WANBugs) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# synthetic WAN: %d regions x %d routers, %d edge routers (generated)\n",
		p.Regions, p.RoutersPerRegion, p.EdgeRouters)

	var backbone []string
	for r := 0; r < p.Regions; r++ {
		for i := 0; i < p.RoutersPerRegion; i++ {
			id := string(RegionRouter(r, i))
			fmt.Fprintf(&b, "node %s { as %d role wan region region-%d }\n", id, WANLocalAS, r)
			backbone = append(backbone, id)
		}
		for d := 0; d < p.DCsPerRegion; d++ {
			fmt.Fprintf(&b, "external %s { as %d role dc }\n", DCRouter(r, d), 65100+r)
		}
	}
	for e := 0; e < p.EdgeRouters; e++ {
		id := string(EdgeRouter(e))
		fmt.Fprintf(&b, "node %s { as %d role edge }\n", id, WANLocalAS)
		backbone = append(backbone, id)
		for q := 0; q < p.PeersPerEdge; q++ {
			fmt.Fprintf(&b, "external %s { as %d role peer }\n", PeerNode(e, q), 2000+e*100+q)
		}
	}
	for i := 0; i < len(backbone); i++ {
		for j := i + 1; j < len(backbone); j++ {
			fmt.Fprintf(&b, "peering %s %s\n", backbone[i], backbone[j])
		}
	}
	for r := 0; r < p.Regions; r++ {
		for d := 0; d < p.DCsPerRegion; d++ {
			for i := 0; i < p.RoutersPerRegion; i++ {
				fmt.Fprintf(&b, "peering %s %s\n", DCRouter(r, d), RegionRouter(r, i))
			}
		}
	}
	for e := 0; e < p.EdgeRouters; e++ {
		for q := 0; q < p.PeersPerEdge; q++ {
			fmt.Fprintf(&b, "peering %s %s\n", PeerNode(e, q), EdgeRouter(e))
		}
	}

	b.WriteString("\nprefix-list reused { 10.128.0.0/9 ge 9 le 28 }\n")
	b.WriteString("prefix-list bogons {\n  0.0.0.0/8 ge 8 le 32\n  127.0.0.0/8 ge 8 le 32\n  169.254.0.0/16 ge 16 le 32\n  192.0.2.0/24 ge 24 le 32\n  224.0.0.0/4 ge 4 le 32\n}\n")
	b.WriteString("prefix-list class-e { 240.0.0.0/4 ge 4 le 32 }\n")
	b.WriteString("prefix-list default-route { 0.0.0.0/0 }\n")
	var regionals []string
	for r := 0; r < p.Regions; r++ {
		regionals = append(regionals, RegionComm(r).String())
	}
	fmt.Fprintf(&b, "community-list regional { %s }\n\n", strings.Join(regionals, " "))

	// DC imports.
	for r := 0; r < p.Regions; r++ {
		comm := RegionComm(r)
		if bugs.WrongRegionCommunity && r == 0 && p.Regions > 1 {
			comm = RegionComm(1)
		}
		for d := 0; d < p.DCsPerRegion; d++ {
			for i := 0; i < p.RoutersPerRegion; i++ {
				name := fmt.Sprintf("dc-import-r%d-%d-%d", r, d, i)
				fmt.Fprintf(&b, "route-map %s {\n  term 10 permit {\n    match prefix-list reused\n    set community none\n    set community add %s\n  }\n  term 20 permit { set community none }\n}\n", name, comm)
				fmt.Fprintf(&b, "import %s -> %s map %s\n", DCRouter(r, d), RegionRouter(r, i), name)
			}
		}
	}

	// iBGP imports: one map per destination router role/region.
	for r := 0; r < p.Regions; r++ {
		name := fmt.Sprintf("ibgp-import-region-%d", r)
		fmt.Fprintf(&b, "route-map %s {\n  term 10 deny {\n    match prefix-list reused\n    match not community %s\n  }\n  term 20 permit { }\n}\n", name, RegionComm(r))
	}
	b.WriteString("route-map ibgp-import-edge {\n  term 10 deny { match prefix-list reused }\n  term 20 permit { }\n}\n")
	for i, src := range backbone {
		for j, dst := range backbone {
			if i == j {
				continue
			}
			var mapName string
			if strings.HasPrefix(dst, "edge-") {
				mapName = "ibgp-import-edge"
			} else {
				var rr, ii int
				fmt.Sscanf(dst, "wan-r%d-%d", &rr, &ii)
				mapName = fmt.Sprintf("ibgp-import-region-%d", rr)
			}
			fmt.Fprintf(&b, "import %s -> %s map %s\n", src, dst, mapName)
		}
	}

	// Peer imports and exports.
	for e := 0; e < p.EdgeRouters; e++ {
		for q := 0; q < p.PeersPerEdge; q++ {
			name := fmt.Sprintf("peer-import-e%d-%d", e, q)
			fmt.Fprintf(&b, "route-map %s {\n", name)
			seq := 10
			deny := func(match string) {
				fmt.Fprintf(&b, "  term %d deny { match %s }\n", seq, match)
				seq += 10
			}
			if !(bugs.MissingBogonFilter && e == 0 && q == 0) {
				deny("prefix-list bogons")
			}
			deny("prefix-list class-e")
			deny("prefix-list default-route")
			deny("prefix-list reused")
			deny("plen >= 25")
			deny("not pathlen <= 30")
			deny(fmt.Sprintf("path-contains %d", PrivateASN))
			deny(fmt.Sprintf("path-contains %d", WANLocalAS))
			fmt.Fprintf(&b, "  term %d permit {\n    set community none\n", seq)
			if !(bugs.MissingLocalPref && e == 0 && q == 1 && p.PeersPerEdge > 1) {
				fmt.Fprintf(&b, "    set local-pref %d\n", PeerLocalPref)
			}
			fmt.Fprintf(&b, "    set med %d\n  }\n}\n", PeerMED)
			fmt.Fprintf(&b, "import %s -> %s map %s\n", PeerNode(e, q), EdgeRouter(e), name)

			expName := fmt.Sprintf("peer-export-e%d-%d", e, q)
			fmt.Fprintf(&b, "route-map %s {\n  term 10 deny { match prefix-list reused }\n  term 20 deny { match community-list regional }\n  term 30 permit { }\n}\n", expName)
			fmt.Fprintf(&b, "export %s -> %s map %s\n", EdgeRouter(e), PeerNode(e, q), expName)
		}
	}
	return b.String()
}
