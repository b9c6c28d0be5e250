module uu/cmd/uuperf

go 1.22

require uu v0.0.0

replace uu => ../..
