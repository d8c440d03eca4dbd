"""Local webhook receiver for the monitor-replay workload.

Listens on an ephemeral port of 127.0.0.1 and prints the port on its first
stdout line.  Every POST body is stored and answered at once with 204.
``GET /drain`` returns the stored bodies as a JSON list and clears them.
"""

import json
from http.server import BaseHTTPRequestHandler, HTTPServer


class Handler(BaseHTTPRequestHandler):
    received: list = []

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", 0))
        self.received.append(json.loads(self.rfile.read(length)))
        self.send_response(204)
        self.end_headers()

    def do_GET(self) -> None:  # noqa: N802
        body = json.dumps(self.received).encode("utf-8")
        self.received.clear()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # silence per-request logging
        pass


def main() -> None:
    server = HTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
