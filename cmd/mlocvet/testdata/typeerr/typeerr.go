// Package typeerr does not type-check: mlocvet must refuse to load it.
package typeerr

// N is declared int but initialised with a string.
var N int = "not a number"
