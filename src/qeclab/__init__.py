"""qeclab: a desk-scale quantum error correction laboratory.

Dense simulation of small qubit registers, the perfect five-qubit code with
brute-force syndrome decoding, compilation of circuits to ion-trap laser
pulses with an exact pulse-level verifier, and an exact/Monte-Carlo study of
error-correction schemes under phase-diffusion noise.
"""

from .states import DensityMatrix, PureState, fidelity, phase_aligned_distance
from .circuits import (
    Circuit,
    CircuitFormatError,
    GateOp,
    apply_circuit,
    circuit_to_unitary,
    invert_circuit,
    parse_circuit,
    serialize_circuit,
)
from .codes import (
    CodeSpec,
    ErrorOp,
    SyndromeTable,
    apply_error,
    build_syndrome_table,
    check_knill_laflamme,
    decode_and_correct,
    encode,
    five_qubit_code,
    five_qubit_codewords,
    five_qubit_encoder,
    single_qubit_error_classes,
    three_qubit_phase_code,
    two_qubit_zeno_code,
)
from .iontrap import (
    Pulse,
    PulseSequence,
    compile_cphase,
    compile_circuit,
    simulate_pulse_sequence,
    verify_compilation,
)
from .noise import (
    CoherenceCurve,
    Scheme,
    dephase_channel,
    figure5_data,
    mc_coherence,
    n_shot_coherence,
    run_scheme,
    scheme_coherence,
    scheme_coherences,
)
from .search import Candidate, SearchConfig, is_valid_perfect_code, search

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
