"""The whole-program index: one parse of the tree, shared by every checker.

The per-file checkers stop at module boundaries -- ``_resolve_callee`` in the
original CONC003 only followed ``self.m()`` within a class and bare ``name()``
within a module, which is exactly wrong for this codebase: the hot
concurrency paths *span* modules (``distrib/coordinator.py`` calls
``_launch`` implemented in ``distrib/cluster.py`` and sends over locks in
``net/transport.py``).  :class:`ProjectIndex` parses the
tree once and answers the questions an interprocedural checker needs:

* module naming -- ``src/repro/net/transport.py`` is ``repro.net.transport``
  (detected from ``__init__.py`` chains, with an ``src/``-layout fallback so
  fixture trees without package markers still resolve);
* import resolution -- ``from repro.net.transport import TcpTransport``
  maps the local name to the defining module and class;
* class/method tables with base-class linearization and a subclass map;
* attribute typing -- ``self.transport`` is a ``Transport`` because the
  constructor parameter it was assigned from is annotated (or because of an
  ``AnnAssign``, or a direct ``self.x = ClassName(...)``);
* a cross-module call resolver (:meth:`ProjectIndex.callees`) used to build
  the lock-order graph: ``self.method()`` through the MRO, abstract hooks
  expanded to their in-tree overrides (the template-method pattern the
  coordinator's ``_launch`` uses), attribute-typed and annotated-local receivers,
  and imported functions/constructors.

Everything is plain ``ast``: the analyzed tree is never imported, so fixture
trees that could not import at all still index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import SourceModule, attr_chain, qualname_index

__all__ = ["ClassInfo", "FunctionInfo", "ProjectIndex", "annotation_class"]


@dataclass
class ClassInfo:
    """One class definition and what the resolvers need to know about it."""

    name: str                      # bare name, e.g. "TcpTransport"
    dotted: str                    # "repro.net.transport.TcpTransport"
    module: SourceModule
    node: ast.ClassDef
    #: Base expressions resolved to dotted names where possible (raw dotted
    #: source text otherwise, e.g. "Protocol").
    bases: List[str] = field(default_factory=list)
    #: Own methods (functions defined directly in the class body).
    methods: Dict[str, ast.AST] = field(default_factory=dict)
    #: Inferred attribute types: attr name -> dotted class name.
    attr_types: Dict[str, str] = field(default_factory=dict)

    def is_protocol(self) -> bool:
        return any(b == "Protocol" or b.endswith(".Protocol")
                   for b in self.bases)


@dataclass
class FunctionInfo:
    """One function/method definition, addressable across the project."""

    key: str                       # "<module path>::<qualname>"
    module: SourceModule
    qualname: str                  # "Class.method" or "function"
    node: ast.AST

    @property
    def owner(self) -> Optional[str]:
        """Bare name of the defining class (None for module-level defs)."""
        return self.qualname.split(".")[0] if "." in self.qualname else None


def annotation_class(annotation: ast.AST) -> Optional[str]:
    """The dotted source text of the class an annotation names, if simple.

    Unwraps ``Optional[T]`` and string annotations; gives up on unions,
    generics and anything else a single class cannot be read from.
    """
    node: ast.AST = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head = attr_chain(node.value)
        if head.split(".")[-1] == "Optional":
            return annotation_class(node.slice)
        return None
    chain = attr_chain(node)
    return chain or None


def _is_abstract(node: ast.AST) -> bool:
    """True when a method body is (docstring +) ``raise NotImplementedError``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


class ProjectIndex:
    """Cross-module tables over one parsed tree.  Build once, share."""

    def __init__(self, modules: Sequence[SourceModule]):
        self.modules: List[SourceModule] = list(modules)
        #: module path -> dotted module name.
        self.module_names: Dict[str, str] = _dotted_names(self.modules)
        #: dotted module name -> module (last one wins on collisions).
        self.by_name: Dict[str, SourceModule] = {
            self.module_names[m.path]: m for m in self.modules}
        #: module path -> {local name -> dotted target}.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: dotted class name -> info.
        self.classes: Dict[str, ClassInfo] = {}
        #: module path -> {bare class name -> dotted}.
        self._module_classes: Dict[str, Dict[str, str]] = {}
        #: "<module path>::<qualname>" -> info.
        self.functions: Dict[str, FunctionInfo] = {}
        #: dotted class name -> dotted names of its in-tree subclasses.
        self.subclasses: Dict[str, Set[str]] = {}
        self._local_types: Dict[int, Dict[str, str]] = {}
        for module in self.modules:
            self._index_module(module)
        self._resolve_bases()
        for module in self.modules:
            self._infer_attr_types(module)

    # -- construction --------------------------------------------------------------------

    def _index_module(self, module: SourceModule) -> None:
        dotted_module = self.module_names[module.path]
        package = _package_of(module, dotted_module)
        imports: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = package.split(".") if package else []
                    up = up[:len(up) - (node.level - 1)] if node.level > 1 else up
                    prefix = ".".join(up)
                    base = ("%s.%s" % (prefix, base)).strip(".") if prefix \
                        else base
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = "%s.%s" % (base, alias.name) if base else alias.name
                    imports[local] = target
        self.imports[module.path] = imports

        names = qualname_index(module)
        class_map: Dict[str, str] = {}
        for node, qualname in names.items():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = "%s::%s" % (module.path, qualname)
                self.functions[key] = FunctionInfo(
                    key=key, module=module, qualname=qualname, node=node)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            dotted = "%s.%s" % (dotted_module, node.name) if dotted_module \
                else node.name
            methods = {child.name: child for child in node.body
                       if isinstance(child, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))}
            self.classes[dotted] = ClassInfo(
                name=node.name, dotted=dotted, module=module, node=node,
                bases=[attr_chain(b) or ast.unparse(b) for b in node.bases],
                methods=methods)
            class_map[node.name] = dotted
        self._module_classes[module.path] = class_map

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            resolved = []
            for base in info.bases:
                target = self.resolve_class(info.module, base)
                resolved.append(target.dotted if target is not None else base)
            info.bases = resolved
            for base in resolved:
                if base in self.classes:
                    self.subclasses.setdefault(base, set()).add(info.dotted)

    def _infer_attr_types(self, module: SourceModule) -> None:
        for class_map in (self._module_classes.get(module.path, {}),):
            for dotted in class_map.values():
                info = self.classes[dotted]
                self._infer_class_attrs(info)

    def _infer_class_attrs(self, info: ClassInfo) -> None:
        def record(attr: str, annotation: Optional[ast.AST],
                   value_class: Optional[str] = None) -> None:
            target: Optional[ClassInfo] = None
            if annotation is not None:
                chain = annotation_class(annotation)
                if chain:
                    target = self.resolve_class(info.module, chain)
            elif value_class:
                target = self.resolve_class(info.module, value_class)
            if target is not None:
                info.attr_types.setdefault(attr, target.dotted)

        for statement in info.node.body:
            if isinstance(statement, ast.AnnAssign) \
                    and isinstance(statement.target, ast.Name):
                record(statement.target.id, statement.annotation)
        for method in info.methods.values():
            params = _param_annotations(method)
            for node in ast.walk(method):
                if isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Attribute) \
                        and isinstance(node.target.value, ast.Name) \
                        and node.target.value.id == "self":
                    record(node.target.attr, node.annotation)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        value = node.value
                        if isinstance(value, ast.Call):
                            record(target.attr, None,
                                   value_class=attr_chain(value.func) or None)
                        elif isinstance(value, ast.Name) \
                                and value.id in params:
                            record(target.attr, params[value.id])

    # -- lookups -------------------------------------------------------------------------

    def resolve(self, module: SourceModule, chain: str) -> Optional[str]:
        """Resolve a dotted source-text chain to a project dotted name.

        Handles local class names, imported names (through aliases), and
        plain ``package.module.Thing`` chains.  Returns None when the chain
        does not land inside the analyzed tree.
        """
        if not chain or chain.startswith("<"):
            return None
        parts = chain.split(".")
        local = self._module_classes.get(module.path, {})
        if parts[0] in local:
            return ".".join([local[parts[0]]] + parts[1:])
        imports = self.imports.get(module.path, {})
        if parts[0] in imports:
            parts = imports[parts[0]].split(".") + parts[1:]
        dotted = ".".join(parts)
        # A known class (optionally with trailing attributes), a known
        # module, or a member of a known module.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.classes or prefix in self.by_name:
                return dotted
        return None

    def resolve_class(self, module: SourceModule,
                      chain: str) -> Optional[ClassInfo]:
        dotted = self.resolve(module, chain)
        return self.classes.get(dotted) if dotted else None

    def class_of(self, module: SourceModule,
                 bare_name: str) -> Optional[ClassInfo]:
        """The class named ``bare_name`` defined in ``module``, if any."""
        dotted = self._module_classes.get(module.path, {}).get(bare_name)
        return self.classes.get(dotted) if dotted else None

    def mro(self, dotted: str) -> List[ClassInfo]:
        """In-tree base linearization (left-to-right DFS, deduplicated)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [dotted]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            out.append(info)
            queue.extend(info.bases)
        return out

    def find_method(self, class_dotted: str, name: str
                    ) -> Optional[Tuple[ClassInfo, ast.AST]]:
        """Resolve ``name`` through the class's in-tree MRO."""
        for info in self.mro(class_dotted):
            if name in info.methods:
                return info, info.methods[name]
        return None

    def attr_type(self, class_dotted: str, attr: str) -> Optional[str]:
        """Inferred type of ``self.<attr>`` through the in-tree MRO."""
        for info in self.mro(class_dotted):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def _function_key(self, owner: ClassInfo, name: str) -> str:
        return "%s::%s.%s" % (owner.module.path, owner.name, name)

    def _method_keys(self, class_dotted: str, name: str,
                     dynamic_root: Optional[str] = None) -> List[str]:
        """Keys a ``<instance of class>.name()`` call may land on.

        The statically-found definition, plus -- when that definition is an
        abstract hook -- the overrides in in-tree subclasses of
        ``dynamic_root`` (the receiver's static type), which is how the
        coordinator core's template methods actually dispatch.
        """
        found = self.find_method(class_dotted, name)
        keys: List[str] = []
        if found is not None:
            owner, node = found
            keys.append(self._function_key(owner, name))
            if not _is_abstract(node):
                return keys
        root = dynamic_root or class_dotted
        pending = list(self.subclasses.get(root, ()))
        seen: Set[str] = set()
        while pending:
            sub = pending.pop()
            if sub in seen:
                continue
            seen.add(sub)
            info = self.classes.get(sub)
            if info is None:
                continue
            if name in info.methods:
                keys.append(self._function_key(info, name))
            pending.extend(self.subclasses.get(sub, ()))
        return keys

    # -- call resolution -----------------------------------------------------------------

    def _locals_of(self, func_node: ast.AST,
                   module: SourceModule) -> Dict[str, str]:
        """Annotated-parameter and constructed-local types of one function."""
        cached = self._local_types.get(id(func_node))
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        if isinstance(func_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for name, annotation in _param_annotations(func_node).items():
                chain = annotation_class(annotation)
                target = self.resolve_class(module, chain) if chain else None
                if target is not None:
                    types[name] = target.dotted
            for node in ast.walk(func_node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) \
                        and isinstance(node.value, ast.Call):
                    target = self.resolve_class(
                        module, attr_chain(node.value.func))
                    if target is not None:
                        types[node.targets[0].id] = target.dotted
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    chain = annotation_class(node.annotation)
                    target = self.resolve_class(module, chain) if chain \
                        else None
                    if target is not None:
                        types[node.target.id] = target.dotted
        self._local_types[id(func_node)] = types
        return types

    def callees(self, module: SourceModule, caller_qualname: str,
                func_node: Optional[ast.AST],
                call_func: ast.AST) -> List[str]:
        """Function keys a call expression may resolve to, across modules."""
        enclosing = self.class_of(module, caller_qualname.split(".")[0]) \
            if "." in caller_qualname else None

        if isinstance(call_func, ast.Name):
            name = call_func.id
            key = "%s::%s" % (module.path, name)
            if key in self.functions:
                return [key]
            resolved = self.resolve(module, name)
            if resolved:
                if resolved in self.classes:
                    info = self.classes[resolved]
                    if "__init__" in info.methods:
                        return [self._function_key(info, "__init__")]
                    return []
                owner, _, member = resolved.rpartition(".")
                target = self.by_name.get(owner)
                if target is not None:
                    key = "%s::%s" % (target.path, member)
                    if key in self.functions:
                        return [key]
            return []

        if not isinstance(call_func, ast.Attribute):
            return []
        method = call_func.attr
        receiver = call_func.value

        # self.m() / cls.m(): through the enclosing class's MRO, abstract
        # hooks expanded to the enclosing class's in-tree overrides.
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            if enclosing is not None:
                return self._method_keys(enclosing.dotted, method)
            return []

        chain = attr_chain(receiver)
        if not chain or chain.startswith("<"):
            return []
        parts = chain.split(".")

        # self.attr[.subattr].m(): typed-attribute receiver.
        if parts[0] in ("self", "cls") and enclosing is not None:
            current: Optional[str] = enclosing.dotted
            for attr in parts[1:]:
                current = self.attr_type(current, attr) if current else None
            if current:
                return self._method_keys(current, method, dynamic_root=current)
            return []

        # var.m(): annotated parameter or constructed local.
        if len(parts) == 1 and func_node is not None:
            local = self._locals_of(func_node, module).get(parts[0])
            if local:
                return self._method_keys(local, method, dynamic_root=local)

        # Class.m() / module.func() / module.Class.m().
        resolved = self.resolve(module, chain)
        if resolved:
            if resolved in self.classes:
                return self._method_keys(resolved, method)
            target = self.by_name.get(resolved)
            if target is not None:
                key = "%s::%s" % (target.path, method)
                if key in self.functions:
                    return [key]
        return []


def _param_annotations(func_node: ast.AST) -> Dict[str, ast.AST]:
    out: Dict[str, ast.AST] = {}
    if isinstance(func_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func_node.args
        for arg in list(args.posonlyargs) + list(args.args) \
                + list(args.kwonlyargs):
            if arg.annotation is not None:
                out[arg.arg] = arg.annotation
    return out


def _package_of(module: SourceModule, dotted: str) -> str:
    if module.path.endswith("/__init__.py") or module.path == "__init__.py":
        return dotted
    return dotted.rsplit(".", 1)[0] if "." in dotted else ""


def _dotted_names(modules: Sequence[SourceModule]) -> Dict[str, str]:
    """Module path -> dotted name.

    Primary rule: the longest chain of package directories (each containing
    an ``__init__.py`` present in the analyzed set).  Fallback for fixture
    trees without package markers: everything after the last ``src``
    component.  The longer answer wins.
    """
    fileset = {m.path for m in modules}
    names: Dict[str, str] = {}
    for module in modules:
        parts = PurePosixPath(module.path).parts
        is_init = parts[-1] == "__init__.py"
        file_index = len(parts) - 1
        start = file_index
        while start - 1 >= 0:
            # PurePosixPath joins correctly for absolute roots too, where a
            # plain "/".join would double the leading slash.
            marker = str(PurePosixPath(*parts[:start]) / "__init__.py")
            if marker in fileset:
                start -= 1
            else:
                break
        package_parts = list(parts[start:file_index])
        if not is_init:
            package_parts.append(parts[-1][:-3])
        best = package_parts
        if "src" in parts[:-1]:
            cut = max(i for i, part in enumerate(parts[:-1]) if part == "src")
            src_parts = list(parts[cut + 1:file_index])
            if not is_init:
                src_parts.append(parts[-1][:-3])
            if len(src_parts) > len(best):
                best = src_parts
        names[module.path] = ".".join(best) if best \
            else (parts[-1][:-3] if not is_init else "")
    return names
