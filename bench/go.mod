module mptcp/bench

go 1.22

require mptcp v0.0.0

replace mptcp => ../
