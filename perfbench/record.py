"""Record the SHA-256 of every seed-independent report the workloads request.

    python3 perfbench/record.py

Runs each such request once, in this interpreter, checks its exit code,
schema and invariant, and rewrites perfbench/digests.json. Refusals are not
recorded: they are checked by exit code and schema only.
"""

import json
import sys

from worker import HERE, ROOT, issue

import checks
import workloads


def main():
    validators = checks.load_validators(ROOT / "schemas")
    digests, bad = {}, []
    for name in workloads.WORKLOADS:
        for req in workloads.requests(name, 0):
            if req.seeded or req.exit_code != 0 or req.key in digests:
                continue
            code, out = issue(req.argv, keep_bytes=None)
            found = checks.problems(req, code, out.text, validators, None)
            bad += [f"{req.key}: {p}" for p in found]
            digests[req.key] = checks.digest(req, out.text)
            print(f"{name}: {req.key}", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
