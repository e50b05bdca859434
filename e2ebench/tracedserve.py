"""``repro-traffic serve`` with spans around bundle loads and request dispatch.

    python3 e2ebench/tracedserve.py SPANS_PATH serve --model BUNDLE --port 0

Each dispatched request becomes one span carrying the ``rid`` query
parameter the load generator tags it with; every bundle load (start-up and
``POST /reload``) becomes an ``io.load`` span.  The spans are written to
SPANS_PATH when the server exits.
"""

from __future__ import annotations

import sys
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import SpanRecorder  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import repro.io.persist as persist
    from repro.cli import main as cli_main
    from repro.io.service import ModelService

    recorder = SpanRecorder()
    recorder.patch(persist, "load_model", "io.load")
    dispatch = ModelService.dispatch

    async def traced_dispatch(self, method, target, body):
        start = recorder.clock()
        try:
            return await dispatch(self, method, target, body)
        finally:
            rid = parse_qs(urlsplit(target).query).get("rid", [None])[0]
            recorder.add(None, "io.service.dispatch", None, start, recorder.clock(), rid)

    ModelService.dispatch = traced_dispatch
    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
