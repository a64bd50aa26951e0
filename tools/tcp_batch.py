#!/usr/bin/env python3
"""Drive a multi-tenant job-protocol batch against `slfe_server` over TCP.

A batch script is protocol lines plus one routing layer: an
authenticated connection is bound to a single tenant, so a multi-tenant
batch runs over one connection per tenant. Script grammar (everything
else is the wire protocol, see src/slfe/service/line_protocol.h):

    @<tenant> <protocol line>   send the line on <tenant>'s connection
    barrier                     `wait` on every connection and block until
                                each reports `done req=N` -- the cross-
                                connection sequencing point (e.g. "mutate
                                only after every first-wave job finished")
    # comment / blank           ignored

Every line received from the server is echoed to stdout (prefixed with the
tenant), so the caller can grep the streamed acks/results/stats. Exit
code: 0 iff no connection saw a `reject:` line or a non-ok job status --
the same health contract as the daemon's own exit code.

Usage:
    tcp_batch.py --port=PORT [--host=H] --auth T:SECRET [--auth U:SECRET2]
                 [--bad-auth T:WRONG] --script batch.txt

Against a daemon started without --auth-token, any SECRET binds the
connection to its tenant.
"""

import argparse
import socket
import sys


class Conn:
    """One authenticated protocol connection with buffered line reads."""

    def __init__(self, host, port, tenant, token, timeout=60.0):
        self.tenant = tenant
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.buf = b""
        self.failed = False
        if token is not None:
            self.send("auth %s %s\n" % (tenant, token))
            line = self.read_line()
            if line != "ok tenant=%s" % tenant:
                raise SystemExit("auth as %s failed: %r" % (tenant, line))

    def send(self, text):
        self.sock.sendall(text.encode())

    def read_line(self):
        """One line without its newline; None on EOF."""
        while b"\n" not in self.buf:
            data = self.sock.recv(4096)
            if not data:
                return None
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def echo(self, line):
        print("[%s] %s" % (self.tenant, line), flush=True)
        if line.startswith("reject:"):
            self.failed = True
        if " status=" in line and " status=ok " not in line + " ":
            self.failed = True

    def drain_until_done(self):
        """Reads (and echoes) until the barrier's `done req=N` line."""
        while True:
            line = self.read_line()
            if line is None:
                raise SystemExit("[%s] connection closed before `done`"
                                 % self.tenant)
            self.echo(line)
            if line.startswith("done req="):
                return

    def quit(self):
        # A `shutdown` in the script closes connections server-side;
        # quitting one that's already gone is fine, and the `quit` written
        # into a closed socket can come back as a reset instead of EOF.
        try:
            self.send("quit\n")
            while True:
                line = self.read_line()
                if line is None:
                    return
                self.echo(line)
        except (BrokenPipeError, ConnectionResetError):
            pass


def check_bad_auth(host, port, tenant, token):
    """A wrong token must get the generic rejection and a dropped socket."""
    sock = socket.create_connection((host, port), timeout=60.0)
    sock.sendall(("auth %s %s\n" % (tenant, token)).encode())
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            break
        data += chunk
    line = data.decode().strip()
    print("[bad-auth] %s" % line, flush=True)
    if line != "reject: auth failed":
        raise SystemExit("bad-auth: expected 'reject: auth failed', got %r"
                         % line)
    # The server must close us -- a refused peer doesn't keep a slot.
    if sock.recv(4096) != b"":
        raise SystemExit("bad-auth: connection not dropped after rejection")
    sock.close()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--auth", action="append", default=[],
                        metavar="TENANT:SECRET",
                        help="open one connection per tenant (repeatable)")
    parser.add_argument("--bad-auth", metavar="TENANT:SECRET",
                        help="first, prove this wrong token is turned away")
    parser.add_argument("--script", required=True)
    args = parser.parse_args()

    if args.bad_auth:
        tenant, token = args.bad_auth.split(":", 1)
        check_bad_auth(args.host, args.port, tenant, token)

    conns = {}
    for spec in args.auth:
        tenant, token = spec.split(":", 1)
        conns[tenant] = Conn(args.host, args.port, tenant, token)
    if not conns:
        raise SystemExit("need at least one --auth TENANT:SECRET")

    with open(args.script) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "barrier":
                for conn in conns.values():
                    conn.send("wait\n")
                for conn in conns.values():
                    conn.drain_until_done()
                continue
            if not line.startswith("@"):
                raise SystemExit("script line needs @tenant routing: %r"
                                 % line)
            tenant, _, payload = line[1:].partition(" ")
            if tenant not in conns:
                raise SystemExit("no connection for tenant %r" % tenant)
            conns[tenant].send(payload + "\n")

    for conn in conns.values():
        conn.quit()
    if any(conn.failed for conn in conns.values()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
