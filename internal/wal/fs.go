package wal

import (
	"io"
	"os"
)

// fsys is the filesystem under a WAL directory. Every call the store and
// recovery make on the filesystem goes through one value of it, so a test
// can wrap the real one and fail any write, fsync or rename on purpose.
// osFS is the only implementation outside tests.
type fsys interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// file is what the WAL does with an open file or directory.
type file interface {
	io.ReadWriteCloser
	Sync() error
	Stat() (os.FileInfo, error)
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not f: a nil *os.File in a file is not a nil file
	}
	return f, nil
}
