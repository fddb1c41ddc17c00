"""Independent flip-flop oracle used by the test suite.

Interprets the reference QASM listing (embedded verbatim below) as plain
classical bit operations, with no dependency on the package's simulator or
circuit builders.  Because every gate in the listing maps basis states to
basis states, a classical trace is an exact oracle for basis inputs.
"""

# The reference 7-qubit listing, kept byte-identical to the published text.
LISTING_QASM = """OPENQASM 2.0;
include "qelib1.inc";

qreg q[7];
creg c[2];

// Labels q[0]=S, q[1]=R, q[3]=QP, q[4]=Q

// Initialization
x q[1];
x q[3];

//Logic Circuit
x q[6];
x q[1];
x q[0];
cx q[0], q[3];
cx q[1], q[4];
x q[1];
ccx q[0], q[1], q[2];
cswap q[2], q[3], q[6];
x q[1];
x q[0];
cswap q[2], q[4], q[5];
ccx q[0], q[1], q[2];
cswap q[2], q[4], q[6];
cswap q[2], q[3], q[5];

measure q[3] -> c[0];
measure q[4] -> c[1];
"""


def significant_lines(text: str) -> list[str]:
    """Statement lines with comments and blank lines stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if line:
            out.append(line)
    return out


def listing_gate_lines(include_init: bool = False) -> list[str]:
    """The gate statements of the listing, optionally with the init X gates."""
    lines = []
    in_init = False
    for raw in LISTING_QASM.splitlines():
        line = raw.split("//", 1)[0].strip()
        if "Initialization" in raw:
            in_init = True
        if "Logic" in raw:
            in_init = False
        if not line or not line.endswith(";"):
            continue
        head = line.split()[0]
        if head in ("OPENQASM", "include", "qreg", "creg", "measure"):
            continue
        if in_init and not include_init:
            continue
        lines.append(line)
    return lines


def classical_trace(bits: list[int], gate_lines: list[str]) -> list[int]:
    """Run QASM gate statements as classical bit operations."""
    bits = list(bits)
    for line in gate_lines:
        stmt = line.rstrip(";")
        name, rest = stmt.split(None, 1)
        qs = [int(tok.split("[")[1].rstrip("]")) for tok in rest.split(",")]
        if name == "x":
            bits[qs[0]] ^= 1
        elif name == "cx":
            if bits[qs[0]]:
                bits[qs[1]] ^= 1
        elif name == "ccx":
            if bits[qs[0]] and bits[qs[1]]:
                bits[qs[2]] ^= 1
        elif name == "cswap":
            if bits[qs[0]]:
                bits[qs[1]], bits[qs[2]] = bits[qs[2]], bits[qs[1]]
        else:
            raise ValueError(f"oracle does not know gate {name!r}")
    return bits


def oracle_verbatim_outcome(s: int, r: int, q: int) -> dict[int, int]:
    """Per-qubit readout of the listing's gate body for one basis input."""
    init = [s, r, 0, 1 - q, q, 0, 0]
    out = classical_trace(init, listing_gate_lines())
    return dict(enumerate(out))


# Classical truth model, written directly from the storage-element behavior
# (hold on 00, set on 10, reset on 01, undefined on 11).
def oracle_reference(s: int, r: int, q: int) -> int | None:
    if s == 1 and r == 1:
        return None
    if s == 1:
        return 1
    if r == 1:
        return 0
    return q


# Frozen expected (q4, q3) per defined input row, computed by
# oracle_verbatim_outcome and checked once by hand against the gate body.
VERBATIM_EXPECTED = {
    (0, 0, 0): (1, 0),
    (0, 0, 1): (0, 1),
    (1, 0, 0): (1, 0),
    (1, 0, 1): (1, 0),
    (0, 1, 0): (0, 0),
    (0, 1, 1): (1, 1),
}
