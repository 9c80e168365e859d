//go:build !linux

package main

import (
	"errors"
	"os"
)

func memFile(name string) (*os.File, string, error) {
	return nil, "", errors.New("memfd_create: Linux only")
}
