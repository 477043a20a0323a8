# tcplp_campaign option validation: a malformed --seeds or --jobs value
# exits 2 with a message on stderr, and --list counts the --seeds override.
# Usage: sh campaign_cli_test.sh path/to/tcplp_campaign
bin=$1
err=$(mktemp)
trap 'rm -f "$err"' EXIT
fail=0

rejects() {
    "$bin" --list --filter sweep_smoke "$@" > /dev/null 2> "$err"
    status=$?
    if [ "$status" -ne 2 ] || [ ! -s "$err" ]; then
        echo "FAIL: $* exited $status (want 2 with a message)"
        fail=1
    fi
}

lists() {
    want=$1
    shift
    out=$("$bin" --list --filter sweep_smoke "$@")
    case $out in
        *" $want points "*) ;;
        *) echo "FAIL: --list $* printed '$out' (want $want points)"; fail=1 ;;
    esac
}

rejects --seeds -1
rejects --seeds 99999999999999999999999
rejects --seeds 1,
rejects --seeds ,1
rejects --seeds 1,,2
rejects --seeds +1
rejects --seeds ''
rejects --jobs abc
rejects --jobs 0
rejects --jobs -3
rejects --jobs 4x

lists 8
lists 4 --seeds 5
lists 12 --seeds 18446744073709551615,0,7 --jobs 4

exit $fail
