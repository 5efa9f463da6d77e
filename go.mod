module gristgo

go 1.22

// No requirements: the module, including the gristlint framework in
// internal/lint, builds from the standard library alone, offline.
