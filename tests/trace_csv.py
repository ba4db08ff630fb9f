"""Per-symbol CSV dump of a signal-level run, for inspecting waveforms by hand."""


def trace_to_csv(trace: dict, path) -> None:
    """Write the secret s and the receiver outputs r_A and r_E of trace.

    trace maps waveform names to equal-length complex vectors.

    Raises:
        ValueError: if trace lacks s, r_A or r_E.
    """
    if any(trace.get(key) is None for key in ("s", "r_A", "r_E")):
        raise ValueError("trace is incomplete; run both phases and receivers first")
    s, r_A, r_E = trace["s"], trace["r_A"], trace["r_E"]
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write("k,s_re,s_im,r_A_re,r_A_im,r_E_re,r_E_im\n")
        for k in range(s.shape[0]):
            vals = (s[k].real, s[k].imag, r_A[k].real, r_A[k].imag, r_E[k].real, r_E[k].imag)
            f.write(str(k) + "," + ",".join(f"{v:.17g}" for v in vals) + "\n")
