package cluster

import "testing"

func TestMachineModelsSane(t *testing.T) {
	for _, m := range []Machine{Hawk(), Seawulf()} {
		if m.Workers <= 0 || m.KernelRate <= 0 || m.Latency <= 0 || m.Bandwidth <= 0 || m.CopyBandwidth <= 0 {
			t.Errorf("%s: non-positive parameter: %+v", m.Name, m)
		}
	}
}

func TestFlavorsEncodeTheBackendContrasts(t *testing.T) {
	p, m := ParsecFlavor(), MadnessFlavor()
	if !p.SplitMD || m.SplitMD {
		t.Error("splitmd: PaRSEC yes, MADNESS no")
	}
	if !p.TreeBroadcast || m.TreeBroadcast {
		t.Error("tree broadcast: PaRSEC yes, MADNESS no")
	}
	if !p.TracksData || m.TracksData {
		t.Error("tracked data: PaRSEC yes, MADNESS no")
	}
	if m.MsgOverhead <= p.MsgOverhead || m.TaskOverhead <= p.TaskOverhead {
		t.Error("MADNESS model should carry higher overheads")
	}
	if d := DPLASMAFlavor(); d.TaskOverhead >= p.TaskOverhead {
		t.Error("DPLASMA should undercut the TTG layer's task overhead")
	}
	if c := ChameleonFlavor(); c.TreeBroadcast || c.BandwidthEff >= 1 {
		t.Error("Chameleon model should lack collectives and full bandwidth")
	}
}

func TestLinkBandwidthDerating(t *testing.T) {
	m := Hawk()
	if got := ParsecFlavor().LinkBandwidth(m); got != m.Bandwidth {
		t.Errorf("full bandwidth expected, got %g", got)
	}
	c := ChameleonFlavor()
	if got := c.LinkBandwidth(m); got >= m.Bandwidth || got <= 0 {
		t.Errorf("derated bandwidth out of range: %g", got)
	}
}
