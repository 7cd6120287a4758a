"""EQL language: AST (§2 definitions) and text parser."""
from .ast import BGP, CTP, Cond, EdgePattern, Pred, Query, const, var  # noqa: F401
from .parser import ParseError, parse  # noqa: F401
