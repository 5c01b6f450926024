package workload

// BuildTable builds a fresh copy of the Table 2 models for the external
// tests, which compare the shared table against it.
var BuildTable = buildTable
