"""Extended-SMV frontend: parser, resolver and boolean flattener."""

from .ast import (
    AssignDecl, AutomatonRef, Binary, BOOL, BoolLit, BoolType, Case,
    DefineDecl, EnumType, Expr, InstanceType, IntLit, Name, RangeType,
    SmvError, SmvFlattenError, SmvModule, SmvResolveError, SmvSpec,
    SmvSyntaxError, Unary, VarDecl, VarType,
)
from .flatten import FlatLatch, FlatModel, flatten
from .parser import parse_smv
from .resolve import ModuleCtx, resolve

__all__ = [
    "AssignDecl", "AutomatonRef", "Binary", "BOOL", "BoolLit", "BoolType",
    "Case", "DefineDecl", "EnumType", "Expr", "FlatLatch", "FlatModel",
    "InstanceType", "IntLit", "ModuleCtx", "Name", "RangeType",
    "SmvError", "SmvFlattenError", "SmvModule", "SmvResolveError", "SmvSpec",
    "SmvSyntaxError", "Unary", "VarDecl", "VarType", "flatten", "parse_smv",
    "resolve",
]
