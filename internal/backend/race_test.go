//go:build race

package backend_test

// raceBuild reports a -race build, whose tests skip the largest runs.
const raceBuild = true
