#!/usr/bin/env bash
# Fails when the Go compiler fused a floating-point multiply and add into
# one instruction anywhere in this module's code. amd64 (GOAMD64=v1) never
# fuses, but arm64, ppc64le, riscv64 and s390x do, and a fused op rounds
# once instead of twice, so model output would differ from the amd64
# goldens by a few ulps. The rule (DESIGN §8.4): wrap the product in an
# explicit float64(...) conversion wherever the compiler could fuse it.
#
#   bash tools/nofma.sh            # check every binary under ./cmd
#   bash tools/nofma.sh ./cmd/rampsim
#
# It cross-compiles the packages for the four architectures, disassembles
# them with go tool objdump, and lists every fused op found in a
# github.com/ramp-sim/ramp function. The runtime's own fused ops are not
# counted. Exit status 1 when any is found.
set -euo pipefail
cd "$(dirname "$0")/.."
pkgs=("${@:-./cmd/...}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

declare -A fused=(
	[arm64]='FMADDD|FMSUBD|FNMADDD|FNMSUBD'
	[ppc64le]='FMADD|FMSUB|FNMADD|FNMSUB'
	[riscv64]='FMADDD|FMSUBD|FNMADDD|FNMSUBD'
	[s390x]='MADBR|MSDBR'
)
status=0
for arch in arm64 ppc64le riscv64 s390x; do
	mkdir "$tmp/$arch"
	GOOS=linux GOARCH=$arch CGO_ENABLED=0 go build -o "$tmp/$arch/" "${pkgs[@]}"
	for bin in "$tmp/$arch"/*; do
		go tool objdump "$bin" | awk -v ops="${fused[$arch]}" '
			/^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn); next }
			fn ~ /^github\.com\/ramp-sim\/ramp[\/.]/ && $0 ~ ("\t(" ops ") ") { n[fn]++ }
			END { for (fn in n) print n[fn] "\t" fn }'
	done | awk -F'\t' '$1 > max[$2] { max[$2] = $1 } END { for (fn in max) print max[fn] "\t" fn }' |
		sort -k2 >"$tmp/$arch.txt"
	ops=$(awk '{ s += $1 } END { print s + 0 }' "$tmp/$arch.txt")
	fns=$(wc -l <"$tmp/$arch.txt")
	echo "$arch: $ops fused ops in $fns functions"
	if [ "$ops" -gt 0 ]; then
		sed 's/^/  /' "$tmp/$arch.txt"
		status=1
	fi
done
exit $status
