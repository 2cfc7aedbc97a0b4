package main

import "testing"

func TestOnlyTests(t *testing.T) {
	if onlyTests() != 42 {
		t.Fatal("fixture")
	}
}
