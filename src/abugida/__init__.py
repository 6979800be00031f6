"""Text-entry performance metrics for Bengali keystroke session logs.

The package measures typing speed and accuracy for abugida scripts over
the flattened constituent-character stream instead of visual glyphs, so
conjunct-committing techniques and per-character keyboards are scored
on the same footing.  See the module docstrings for the model:

* :mod:`abugida.bengali`   classification, normalization, decomposition
* :mod:`abugida.streams`   keystroke streams and replay
* :mod:`abugida.msd`       fractional-cost minimum string distance
* :mod:`abugida.metrics`   WPM, KSPC, error rates, taxonomy, aggregation
* :mod:`abugida.sessionio` log / profile / phrase-set / report formats
* :mod:`abugida.cli`       the ``abugida`` command
"""

from .bengali import (
    BENGALI_TABLE,
    BasicChar,
    CharTable,
    CodepointClass,
    GraphemeCluster,
    GraphemeClusters,
    OutputStream,
    normalize,
    recompose,
    segment_graphemes,
    to_output_stream,
)
from .errors import (
    AbugidaError,
    EmptyCorpusError,
    EmptyGroupError,
    EmptySessionError,
    EmptyStreamsError,
    EmptyTranscriptionError,
    EncodingError,
    InvalidEncodingError,
    InvalidUnitError,
    ParseError,
    ReplayUnderflowError,
    TranscriptionMismatchError,
    UnknownUnitError,
    UnsupportedKeyError,
    ZeroDurationError,
)
from .metrics import (
    DEFAULT_WORD_LENGTH_CHARS,
    METRIC_FIELDS,
    MetricColumns,
    MetricConfig,
    SessionIntermediates,
    SessionMetrics,
    TechniqueSummary,
    aggregate,
    analyze_session,
    er_bn,
    kspc_bn,
    msder_bn,
    naive_metrics,
    total_error_rate,
    wpm_bn,
)
from .msd import (
    AlignmentResult,
    BackspaceGranularity,
    CostMode,
    CostModel,
    EditOp,
    EditOpKind,
    Segment,
    TechniqueProfile,
    align_symbols,
    atomic_unit_segment,
    msd,
)
from .sessionio import (
    PhraseSet,
    SessionRecord,
    load_phrase_set,
    load_table_file,
    parse_session_log,
    parse_technique_profile,
    write_session_log,
    write_technique_profile,
)
from .streams import (
    InputStream,
    KeyEvent,
    KeyEventKind,
    ReplayResult,
    build_input_stream,
    replay_events,
    replay_transcription,
    session_duration_s,
)

__version__ = "0.1.0"
