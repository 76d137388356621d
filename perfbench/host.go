package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo is the machine shape recorded beside every result. Results
// taken with different Cores or GOMAXPROCS are not compared.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	DataDirFS  string `json:"data_dir_fs"`
}

func probeHost(dataDir string) hostInfo {
	return hostInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		DataDirFS:  fsName(dataDir),
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s os=%s data_dir_fs=%s",
		h.Cores, h.GOMAXPROCS, h.GoVersion, h.OS, h.DataDirFS)
}

// sameShape reports why two results must not be compared, or nil.
func sameShape(a, b hostInfo) error {
	if a.Cores != b.Cores || a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("results come from different machine shapes (cores %d vs %d, GOMAXPROCS %d vs %d); a speedup holds only for the core count it was measured on",
			a.Cores, b.Cores, a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return nil
}

// fsMagic names the filesystems a data dir commonly lives on, by the
// statfs f_type magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// fsName returns the filesystem type of path's mount.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	t := int64(st.Type)
	if n, ok := fsMagic[t]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", t)
}

// resetPeakRSS starts a new peak: VmHWM drops to the current resident
// set, so the next peakRSSMB reads the peak since this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
