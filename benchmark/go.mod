// The benchmark is a module of its own so the repository's build and
// `go test ./...` do not include it; the import path stays under
// learnedpieces/ so it may import the service's internal packages.
module learnedpieces/benchmark

go 1.22

require learnedpieces v0.0.0

replace learnedpieces => ../
