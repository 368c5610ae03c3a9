#!/bin/sh
# Every cedar command on fresh small FSD and CFS images.
#
#   sh scripts/cli_smoke.sh CEDAR DIR
#
# empties DIR, then on each file system runs mkfs, put, get (which must
# cmp equal to the file put), ls, rm, info, crash, recover, scavenge,
# stats, trace --limit 5 and trace --chrome (whose file must parse as
# JSON). On FSD it also runs inspect and why --chrome (JSON too); on CFS
# inspect, serve and why must exit 1 naming the FSD volume they need.
# Every command's stdout goes to this script's stdout, so two runs into
# the same DIR can be compared byte for byte, and so can their images.
# Exits non-zero at the first failure.
set -eu
cedar=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
seq 1 700 > "$dir/file"

fail() {
	echo "cli-smoke: $*" >&2
	exit 1
}

json_ok() {
	python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$1" ||
		fail "$1 is not valid JSON"
}

for fs in fsd cfs; do
	img=$dir/$fs.img
	"$cedar" mkfs "$img" --geometry small --fs $fs
	"$cedar" put "$img" doc/a < "$dir/file"
	"$cedar" put "$img" doc/b < "$dir/file"
	"$cedar" get "$img" doc/a > "$dir/$fs.get"
	cmp "$dir/file" "$dir/$fs.get" || fail "$fs: get differs from the file put"
	"$cedar" ls "$img"
	"$cedar" rm "$img" doc/b
	"$cedar" info "$img"
	"$cedar" crash "$img"
	"$cedar" recover "$img"
	"$cedar" scavenge "$img"
	"$cedar" stats "$img"
	"$cedar" trace "$img" --limit 5
	"$cedar" trace "$img" --chrome "$dir/$fs.trace.json"
	json_ok "$dir/$fs.trace.json"
	if [ $fs = fsd ]; then
		"$cedar" inspect "$img"
		"$cedar" why "$img" --chrome "$dir/$fs.why.json"
		json_ok "$dir/$fs.why.json"
	else
		for cmd in inspect serve why; do
			status=0
			"$cedar" $cmd "$img" > /dev/null 2> "$dir/$cmd.err" || status=$?
			[ $status -eq 1 ] || fail "$cmd on a CFS volume exited $status, not 1"
			grep -q "FSD volume" "$dir/$cmd.err" ||
				fail "$cmd on a CFS volume did not say it needs an FSD volume"
		done
	fi
done
