#!/usr/bin/env python3
"""Fetch the last N `bench-json` workflow artifacts for the trend table.

CI's `perf` job uploads one `bench-json` artifact (BENCH.json) per run.
This script pulls the most recent N of them from
previous runs via the GitHub REST API, extracts each BENCH.json under
`--out/run-<workflow run id>/`, and prints the extracted paths
**oldest-first, one per line** — exactly the argument order
`scripts/bench_trend.py` wants:

    python3 scripts/fetch_bench_history.py --out bench-history --limit 8 \
        > history.txt
    python3 scripts/bench_trend.py $(cat history.txt) BENCH.json

Needs `GITHUB_REPOSITORY` and `GITHUB_TOKEN` (the default `github.token`
with `actions: read` suffices). Degrades gracefully: missing credentials,
an empty artifact history, or individual download failures print a note
to stderr and simply yield fewer paths — the trend table then covers
whatever history exists. Only the standard library is used.
"""

import argparse
import io
import json
import os
import sys
import urllib.request
import zipfile

API = "https://api.github.com"


def api(url, token, raw=False):
    req = urllib.request.Request(url)
    # Unredirected: artifact downloads 302 to SAS-signed blob storage,
    # which rejects requests that still carry the GitHub bearer token
    # (urllib would otherwise forward Authorization to the redirect).
    req.add_unredirected_header("Authorization", f"Bearer {token}")
    req.add_header("X-GitHub-Api-Version", "2022-11-28")
    req.add_header("Accept", "application/vnd.github+json")
    with urllib.request.urlopen(req, timeout=60) as resp:
        data = resp.read()
    return data if raw else json.loads(data)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="bench-history", help="directory to extract artifacts into"
    )
    parser.add_argument(
        "--limit", type=int, default=8, help="how many previous runs to fetch"
    )
    args = parser.parse_args()

    repo = os.environ.get("GITHUB_REPOSITORY")
    token = os.environ.get("GITHUB_TOKEN")
    if not repo or not token:
        print(
            "fetch_bench_history: GITHUB_REPOSITORY/GITHUB_TOKEN unset; "
            "no history fetched",
            file=sys.stderr,
        )
        return 0
    current_run = os.environ.get("GITHUB_RUN_ID", "")
    # Only compare against runs of this branch (pushes) plus, on pull
    # requests, the base branch — otherwise a main-branch table would mix
    # in artifacts from unrelated PR runs whose perf constants may have
    # deliberately diverged, producing bogus deltas.
    wanted_branches = {
        b
        for b in (
            os.environ.get("GITHUB_HEAD_REF") or os.environ.get("GITHUB_REF_NAME"),
            os.environ.get("GITHUB_BASE_REF"),
        )
        if b
    }

    try:
        listing = api(
            f"{API}/repos/{repo}/actions/artifacts"
            f"?name=bench-json&per_page={max(args.limit * 3, 30)}",
            token,
        )
    except Exception as exc:  # noqa: BLE001 — degrade to an empty history
        print(f"fetch_bench_history: listing failed: {exc}", file=sys.stderr)
        return 0
    picked = []
    for artifact in listing.get("artifacts", []):
        # `workflow_run` is null (not absent) for artifacts whose run was
        # deleted — degrade to skipping them, never crash.
        run = artifact.get("workflow_run") or {}
        run_id = str(run.get("id", ""))
        # Skip expired blobs, this very run's own upload (it is the
        # "current" column, passed to bench_trend separately), and runs of
        # other branches.
        if artifact.get("expired") or run_id == current_run:
            continue
        if wanted_branches and run.get("head_branch") not in wanted_branches:
            continue
        picked.append(artifact)
        if len(picked) >= args.limit:
            break
    picked.reverse()  # the API lists newest first; the table wants oldest first

    paths = []
    for artifact in picked:
        run_id = (artifact.get("workflow_run") or {}).get("id", artifact["id"])
        dest = os.path.join(args.out, f"run-{run_id}")
        try:
            blob = api(artifact["archive_download_url"], token, raw=True)
            with zipfile.ZipFile(io.BytesIO(blob)) as archive:
                if "BENCH.json" not in archive.namelist():
                    raise KeyError("no BENCH.json in artifact")
                os.makedirs(dest, exist_ok=True)
                archive.extract("BENCH.json", dest)
        except Exception as exc:  # noqa: BLE001 — any failure just narrows history
            print(
                f"fetch_bench_history: skipping artifact {artifact['id']}: {exc}",
                file=sys.stderr,
            )
            continue
        paths.append(os.path.join(dest, "BENCH.json"))

    for path in paths:
        print(path)
    print(f"fetch_bench_history: {len(paths)} previous BENCH.json files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
