package main

import "testing"

func TestParseVC(t *testing.T) {
	vc, err := parseVC("0.5:2.5")
	if err != nil || vc.Min != 0.5 || vc.Max != 2.5 {
		t.Fatalf("parseVC = %+v, %v", vc, err)
	}
	vc, err = parseVC("-3:-1")
	if err != nil || vc.Min != -3 || vc.Max != -1 {
		t.Fatalf("parseVC negatives = %+v, %v", vc, err)
	}
	for _, in := range []string{"", "1", "a:b", "2:1", "1:"} {
		if _, err := parseVC(in); err == nil {
			t.Errorf("parseVC(%q) accepted", in)
		}
	}
}

func TestParseSC(t *testing.T) {
	sc, err := parseSC("1:3,2:8", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Lo[0] != 1 || sc.Hi[0] != 3 || sc.Lo[1] != 2 || sc.Hi[1] != 8 {
		t.Fatalf("parseSC = %+v", sc)
	}
	for _, in := range []string{"1:3", "1:3,a:b", "3:1,2:8", "1:3,2:8,0:1"} {
		if _, err := parseSC(in, 2); err == nil {
			t.Errorf("parseSC(%q, 2) accepted", in)
		}
	}
}

func TestMakeDataset(t *testing.T) {
	for _, kind := range []string{"gts", "s3d"} {
		ds, err := makeDataset(kind, 8, 1)
		if err != nil || ds == nil {
			t.Fatalf("makeDataset(%s): %v", kind, err)
		}
	}
	if _, err := makeDataset("nope", 8, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}
