//go:build !race

package mptcpnet

const raceEnabled = false
