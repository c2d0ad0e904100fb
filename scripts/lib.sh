# Helpers shared by the live-plane smokes (obs_smoke.sh, audit_smoke.sh,
# serve_smoke.sh). Source with CLUSTER set to the sg-cluster binary.

HAVE_CURL=
command -v curl >/dev/null 2>&1 && HAVE_CURL=1

# scrape URL OUTFILE — GET with curl when available, else over bash's
# /dev/tcp (the listener speaks plain HTTP/1.1 with Content-Length
# framing). Non-200 is a failure either way.
scrape() {
    if [ -n "$HAVE_CURL" ]; then
        curl -fsS --max-time 2 "$1" -o "$2" 2>/dev/null
    else
        local rest=${1#http://} host port path
        host=${rest%%/*}
        path=/${rest#*/}
        port=${host##*:}
        host=${host%%:*}
        exec 9<>"/dev/tcp/$host/$port" || return 1
        printf 'GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$path" "$host" >&9
        local raw
        raw=$(cat <&9)
        exec 9<&- 9>&-
        printf '%s' "${raw#*$'\r\n\r\n'}" >"$2"
        case $raw in "HTTP/1.1 200"*) return 0 ;; *) return 1 ;; esac
    fi
}

# launch_run LOGFILE ARGS... — start `sg-cluster run ARGS` in the
# background with the HTTP listener on an ephemeral port (127.0.0.1:0, so
# parallel CI jobs cannot collide) and wait for the bound address, which
# /metrics, /audit and /query all share. A listener that never comes up
# (e.g. EADDRINUSE on a port still in TIME_WAIT) gets a fresh launch, not
# a CI failure. Sets RUN_PID and ADDR.
launch_run() {
    local logfile=$1
    shift
    ADDR=
    for launch in 1 2 3; do
        "$CLUSTER" run --telemetry-addr 127.0.0.1:0 --telemetry-interval-ms 50 \
            "$@" >"$logfile" 2>&1 &
        RUN_PID=$!
        for _ in $(seq 1 200); do
            ADDR=$(sed -n 's#^telemetry: serving http://\([^/]*\)/metrics$#\1#p' "$logfile")
            [ -n "$ADDR" ] && break
            kill -0 "$RUN_PID" 2>/dev/null && sleep 0.05 || break
        done
        [ -n "$ADDR" ] && return 0
        wait "$RUN_PID" 2>/dev/null || true
        echo "   launch $launch never served telemetry, retrying"
        cat "$logfile"
    done
    echo "FAIL: telemetry address never printed in 3 launches"
    exit 1
}
